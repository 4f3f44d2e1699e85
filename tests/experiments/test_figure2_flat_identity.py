"""Figure 2 cells are flat-native and still give the object path's numbers.

``run_figure2_cell`` builds each rep with ``spec.build_flat`` and hands
the CSR arrays to OPT and the kernel-routed work-stealing members; FIFO
gets a ``to_jobset`` view.  Every panel, with and without FIFO, must
equal -- with ``==`` -- the object path it replaced: ``spec.build`` with
a fresh distribution per rep, every scheduler on the :class:`JobSet`,
work stealing on the reference engine.
"""

import pytest

from repro.experiments.config import FIG2A, FIG2B, FIG2C, ExperimentScale
from repro.experiments.figures import figure2
from repro.experiments.runner import figure2_schedulers
from repro.sim.rng import derive_seed
from repro.workloads.generator import WorkloadSpec
from tests.conftest import use_reference_engine

SCALE = ExperimentScale(n_jobs=80, reps=2)


def object_path_series(cfg, scale, seed, include_fifo):
    """Figure 2's series the way the object path computed them."""
    lineup = figure2_schedulers(cfg, include_fifo)
    series = {}
    for qps in cfg.qps_values:
        sums = {}
        for rep in range(scale.reps):
            cell_seed = derive_seed(seed, int(qps), rep)
            jobset = WorkloadSpec(
                distribution=cfg.distribution_factory(),
                qps=qps,
                n_jobs=scale.n_jobs,
                m=cfg.m,
                units_per_ms=cfg.units_per_ms,
                target_chunks=cfg.target_chunks,
            ).build(seed=cell_seed)
            for i, sched in enumerate(lineup):
                res = sched.run(
                    jobset, m=cfg.m, seed=derive_seed(cell_seed, 1000 + i)
                )
                sums[sched.name] = (
                    sums.get(sched.name, 0.0) + res.max_flow * cfg.time_unit_ms
                )
        for name, total in sums.items():
            series.setdefault(name, []).append(total / scale.reps)
    return series


@pytest.mark.parametrize("include_fifo", [False, True])
@pytest.mark.parametrize("cfg", [FIG2A, FIG2B, FIG2C], ids=lambda c: c.name)
def test_panel_equals_object_path(cfg, include_fifo, monkeypatch):
    flat_native = figure2(
        cfg, SCALE, seed=5, include_fifo=include_fifo, max_workers=1
    ).series
    with monkeypatch.context() as mp:
        use_reference_engine(mp)
        reference = object_path_series(cfg, SCALE, 5, include_fifo)
    assert flat_native == reference
    assert ("fifo" in flat_native) is include_fifo


def test_cell_builds_object_view_only_for_members_that_need_it(monkeypatch):
    from repro.experiments import runner
    from repro.sim import batch_engine
    from repro.sim._cext import kernel_unavailable_reason
    from repro.workloads import generator

    calls = []
    monkeypatch.setattr(
        generator.WorkloadSpec, "build",
        lambda self, seed=None: calls.append("build"),
    )
    monkeypatch.setattr(
        batch_engine, "flatten_jobset", lambda js: calls.append("flatten")
    )
    real_to_jobset = runner.to_jobset
    monkeypatch.setattr(
        runner, "to_jobset",
        lambda flat: calls.append("to_jobset") or real_to_jobset(flat),
    )
    scale = ExperimentScale(n_jobs=40, reps=3)
    runner.run_figure2_cell(FIG2A, 1000.0, scale, seed=1)
    # On the kernel, OPT and both work-stealing members read the CSR
    # arrays; without it the reference engine shares one view per rep.
    kernel = kernel_unavailable_reason() is None
    assert calls == ([] if kernel else ["to_jobset"] * 3)
    calls.clear()
    runner.run_figure2_cell(FIG2A, 1000.0, scale, seed=1, include_fifo=True)
    assert calls == ["to_jobset"] * 3
