"""Cross-engine fuzz: the rep-batched arena kernel vs ``engine="flat"``.

:func:`repro.sim.batch_engine.run_batch` claims *bit-identity per
replicate* with running :func:`repro.sim.flat_engine._run_flat` R times
-- same completions, same :class:`SimulationStats`, same scheduler
label, and the same ``PCG64`` post-state when Generators are passed.
This suite pins that claim from every angle the flat kernel is pinned
against the reference engine:

* randomized layered multi-DAG replicate batches across the ``k`` /
  ``steals_per_tick`` / ``speed`` / ``m`` grid;
* all three paper work distributions (Bing, Finance, log-normal);
* the Section 5 adversarial instances and chain-heavy DAGs;
* ragged replicate counts (R=1, R=5, R=32) over *different* instances
  in one arena;
* RNG post-state identity and telemetry-off schedule identity;
* the per-replicate fallbacks (empty instance, unsorted hand-built
  arrivals) and whole-batch fallbacks (delegating knobs, REPRO_CEXT=0);
* the ``engine="batch"`` facade registration and validation parity.
"""

import dataclasses
import warnings

import numpy as np
import pytest

import repro
from repro.dag.builders import chain, single_node
from repro.dag.flat import flatten_jobset
from repro.dag.job import jobs_from_dags
from repro.sim import _cext, batch_engine, dispatch, flat_engine
from repro.sim.batch_engine import run_batch
from repro.sim.flat_engine import _run_flat
from repro.sim.rng import derive_seed
from repro.workloads import (
    BingDistribution,
    FinanceDistribution,
    LogNormalDistribution,
    WorkloadSpec,
    adversarial_instance,
)

from tests.conftest import use_reference_engine
from tests.sim.test_flat_kernel_equivalence import (
    assert_identical,
    random_instance,
)


def assert_batch_matches_flat(instances, seeds=None, **kwargs):
    """run_batch vs R serial _run_flat calls: full per-rep equality."""
    reps = len(instances)
    if seeds is None:
        seeds = [derive_seed(0, 77, r) for r in range(reps)]
    serial = [
        _run_flat(instances[r], seed=seeds[r], **kwargs) for r in range(reps)
    ]
    batched = run_batch(instances, seeds=seeds, **kwargs)
    assert len(batched) == reps
    for ref, got in zip(serial, batched):
        assert_identical(ref, got)
    return batched


def replicate_instances(base_seed, reps, **inst_kwargs):
    return [
        random_instance(base_seed + r, **inst_kwargs) for r in range(reps)
    ]


BATCH_FUZZ_CASES = [
    # (base instance seed, reps, engine kwargs) -- admit-first,
    # steal-first, sub-tick budgets, speeds, m=1, the theory config.
    (0, 3, dict(m=2, k=0, steals_per_tick=1)),
    (10, 4, dict(m=3, k=1, steals_per_tick=1)),
    (20, 5, dict(m=4, k=4, steals_per_tick=1)),
    (30, 4, dict(m=4, k=16, steals_per_tick=1)),
    (40, 3, dict(m=2, k=0, steals_per_tick=4)),
    (50, 6, dict(m=3, k=2, steals_per_tick=8)),
    (60, 4, dict(m=4, k=8, steals_per_tick=64)),
    (70, 3, dict(m=8, k=3, steals_per_tick=16)),
    (80, 4, dict(m=1, k=2, steals_per_tick=1)),
    (90, 3, dict(m=6, k=4, steals_per_tick=4, speed=2.0)),
    (100, 3, dict(m=2, k=7, steals_per_tick=2, speed=1.5)),
    (110, 4, dict(m=16, k=16, steals_per_tick=64)),
]


@pytest.mark.parametrize("base_seed,reps,kwargs", BATCH_FUZZ_CASES)
def test_fuzz_random_replicates(base_seed, reps, kwargs):
    assert_batch_matches_flat(replicate_instances(base_seed, reps), **kwargs)


@pytest.mark.parametrize(
    "dist",
    [BingDistribution(), FinanceDistribution(), LogNormalDistribution()],
    ids=["bing", "finance", "lognormal"],
)
@pytest.mark.parametrize("kwargs", [
    dict(m=8, k=0, steals_per_tick=64),
    dict(m=8, k=8, steals_per_tick=64),
    dict(m=8, k=4, steals_per_tick=1),
])
def test_paper_distributions(dist, kwargs):
    spec = WorkloadSpec(dist, qps=800.0, n_jobs=60, m=8)
    flats = [spec.build_flat(derive_seed(5, 9000, r)) for r in range(4)]
    assert_batch_matches_flat(flats, **kwargs)


@pytest.mark.parametrize("n_jobs", [8, 32])
def test_adversarial_instances(n_jobs):
    jobset, m = adversarial_instance(n_jobs)
    # The same adversarial instance replicated: per-rep streams must
    # stay independent even over identical structure.
    assert_batch_matches_flat([jobset] * 4, m=m, k=0, steals_per_tick=64)
    assert_batch_matches_flat(
        [jobset] * 3, m=m, k=2 * m, steals_per_tick=64
    )


def test_chain_heavy_dags():
    rng = np.random.default_rng(0)
    instances = []
    for rep in range(4):
        dags = [
            chain(rng.integers(1, 5, size=int(rng.integers(3, 20))).tolist())
            for _ in range(5)
        ]
        dags += [single_node(work=3), single_node(work=1)]
        arrivals = np.cumsum(rng.exponential(2.0, size=len(dags)))
        instances.append(jobs_from_dags(dags, arrivals.tolist()))
    assert_batch_matches_flat(instances, m=3, k=1, steals_per_tick=2)
    assert_batch_matches_flat(instances, m=3, k=0, steals_per_tick=16)


@pytest.mark.parametrize("reps", [1, 5, 32])
def test_ragged_rep_counts(reps):
    """R=1, R=5, R=32 over *different* instances in one arena."""
    instances = replicate_instances(
        500 + reps, reps, n_jobs=4, gap_scale=2.0
    )
    assert_batch_matches_flat(instances, m=4, k=2, steals_per_tick=8)


def test_mixed_sizes_and_empty_rep():
    """Wildly different replicate shapes, including an empty one."""
    instances = [
        random_instance(1, n_jobs=10),
        jobs_from_dags([], []),  # n == 0: the per-rep early return
        random_instance(2, n_jobs=2),
        jobs_from_dags([single_node(work=5)], [0.0]),
    ]
    assert_batch_matches_flat(instances, m=4, k=2, steals_per_tick=4)


def test_rng_post_state_identity():
    """Passing Generators: each rep's PCG64 ends in the serial state."""
    instances = replicate_instances(300, 5)
    kwargs = dict(m=4, k=3, steals_per_tick=8)
    g_serial = [np.random.default_rng(1000 + r) for r in range(5)]
    g_batch = [np.random.default_rng(1000 + r) for r in range(5)]
    serial = [
        _run_flat(instances[r], seed=g_serial[r], **kwargs) for r in range(5)
    ]
    batched = run_batch(instances, seeds=g_batch, **kwargs)
    for ref, got in zip(serial, batched):
        assert_identical(ref, got)
    for r in range(5):
        assert g_serial[r].integers(0, 1 << 30) == g_batch[r].integers(
            0, 1 << 30
        ), f"rep {r}: PCG64 post-state diverged"


def test_telemetry_off_schedule_identity():
    """Telemetry never changes results, and the events tell the story."""
    instances = replicate_instances(400, 4)
    kwargs = dict(m=4, k=2, steals_per_tick=8)
    seeds = [derive_seed(9, 9, r) for r in range(4)]
    from repro.obs.telemetry import Telemetry

    tel = Telemetry()
    observed = run_batch(instances, seeds=seeds, telemetry=tel, **kwargs)
    bare = run_batch(instances, seeds=seeds, **kwargs)
    for a, b in zip(observed, bare):
        assert_identical(a, b)
    kinds = [
        e["event"] for e in tel.events if e["event"].startswith("batch.")
    ]
    assert kinds[0] == "batch.start"
    assert kinds[-1] == "batch.done"
    assert kinds.count("batch.flush") == 4


def test_delegating_knobs_fall_back_identically(monkeypatch):
    """Out-of-scope knobs run the per-rep flat path (which delegates)."""
    monkeypatch.setattr(flat_engine, "_SLOW_PATH_WARNED", True)
    instances = replicate_instances(600, 3)
    for kwargs in (
        dict(m=4, victim_policy="round-robin", k=2, steals_per_tick=4),
        dict(m=4, steal_half=True, k=1, steals_per_tick=8),
        dict(m=4, admission="weight", k=3, steals_per_tick=2),
        dict(m=4, k=2, steals_per_tick=4, _fast_forward=False),
    ):
        assert_batch_matches_flat(instances, **kwargs)


def test_unsorted_arrivals_rep_falls_back():
    """A hand-built unsorted-arrivals rep delegates, inside the batch."""
    sorted_flat = flatten_jobset(random_instance(7, n_jobs=5))
    unsorted = dataclasses.replace(
        sorted_flat, arrivals=np.ascontiguousarray(sorted_flat.arrivals[::-1])
    )
    assert not np.all(unsorted.arrivals[1:] >= unsorted.arrivals[:-1])
    instances = [sorted_flat, unsorted, flatten_jobset(random_instance(8))]
    assert_batch_matches_flat(instances, m=4, k=2, steals_per_tick=4)


def test_empty_batch_and_seed_validation():
    assert run_batch([], m=4) == []
    instances = replicate_instances(0, 2)
    with pytest.raises(ValueError, match="one seed per instance"):
        run_batch(instances, m=4, seeds=[1])


def test_validation_errors_match_flat():
    instances = replicate_instances(1, 2)
    for bad in (
        dict(m=0),
        dict(m=2, speed=0.0),
        dict(m=2, k=-1),
        dict(m=2, steals_per_tick=0),
        dict(m=2, admission="lifo"),
    ):
        with pytest.raises(ValueError) as flat_exc:
            _run_flat(instances[0], **bad)
        with pytest.raises(ValueError) as batch_exc:
            run_batch(instances, **bad)
        assert str(flat_exc.value) == str(batch_exc.value)


def test_max_ticks_overload_error_matches():
    instances = replicate_instances(2, 2)
    with pytest.raises(RuntimeError, match="exceeded max_ticks=5"):
        run_batch(
            instances, m=2, k=0, steals_per_tick=1,
            seeds=[0, 1], max_ticks=5,
        )


def test_determinism():
    instances = replicate_instances(3, 3)
    seeds = [11, 22, 33]
    kwargs = dict(m=4, k=3, steals_per_tick=8)
    a = run_batch(instances, seeds=seeds, **kwargs)
    b = run_batch(instances, seeds=seeds, **kwargs)
    for x, y in zip(a, b):
        assert_identical(x, y)


# ----------------------------------------------------------------------
# REPRO_CEXT resolution ergonomics
# ----------------------------------------------------------------------


def _reset_cext_resolution(monkeypatch):
    monkeypatch.setattr(_cext, "_cext_fn", None)
    monkeypatch.setattr(_cext, "_cext_resolved", False)
    monkeypatch.setattr(_cext, "_cext_warned", False)


def test_cext_disabled_is_identical_and_silent(monkeypatch):
    """REPRO_CEXT=0: pure-Python per-rep fallback, same bits, no noise."""
    _reset_cext_resolution(monkeypatch)
    monkeypatch.setenv("REPRO_CEXT", "0")
    instances = replicate_instances(700, 3)
    seeds = [derive_seed(4, 4, r) for r in range(3)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fallback = run_batch(
            instances, m=4, k=2, steals_per_tick=8, seeds=seeds
        )
    _reset_cext_resolution(monkeypatch)
    monkeypatch.delenv("REPRO_CEXT", raising=False)
    native = run_batch(instances, m=4, k=2, steals_per_tick=8, seeds=seeds)
    for a, b in zip(fallback, native):
        assert_identical(a, b)


def test_cext_requested_but_unbuildable_warns_once(monkeypatch):
    """REPRO_CEXT=1 without a compiler: one RuntimeWarning, then quiet."""
    _reset_cext_resolution(monkeypatch)
    monkeypatch.setenv("REPRO_CEXT", "1")
    monkeypatch.setattr(_cext, "_find_compiler", lambda: None)
    instances = replicate_instances(800, 2)
    with pytest.warns(RuntimeWarning, match="could not be built"):
        first = run_batch(instances, m=3, k=1, steals_per_tick=4, seeds=[1, 2])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        second = run_batch(
            instances, m=3, k=1, steals_per_tick=4, seeds=[1, 2]
        )
    for a, b in zip(first, second):
        assert_identical(a, b)


def test_kernel_is_actually_loaded_here():
    """This environment has a C compiler: the native path must engage
    (otherwise the whole suite silently pins fallback==fallback)."""
    assert _cext.resolve_batch_kernel() is not None


# ----------------------------------------------------------------------
# Kernel eligibility probe (the former batch_options, now the dispatcher)
# ----------------------------------------------------------------------


def batch_options(scheduler):
    """The sweep's fusion probe: a scheduler's engine knobs when
    :mod:`repro.sim.dispatch` routes its configuration to the kernel."""
    kwargs = dispatch.scheduler_kwargs(scheduler)
    if kwargs is None or dispatch._dispatch(None, **kwargs)[0] != "cext":
        return None
    return kwargs


def test_batch_options_accepts_plain_work_stealing():
    from repro.core.work_stealing import (
        AdmitFirstScheduler,
        WeightedWorkStealingScheduler,
        WorkStealingScheduler,
    )

    assert batch_options(WorkStealingScheduler(k=16, steals_per_tick=64)) == {
        "k": 16,
        "steals_per_tick": 64,
        "victim_policy": "uniform",
        "steal_half": False,
        "admission": "fifo",
    }
    # Subclass with an *inherited* run is still the pinned algorithm.
    assert batch_options(AdmitFirstScheduler()) is not None
    # Weighted admission is outside the kernel's native scope.
    assert batch_options(WeightedWorkStealingScheduler()) is None
    # Out-of-scope knobs on the plain class are rejected too.
    assert batch_options(WorkStealingScheduler(victim_policy="max-deque")) is None
    assert batch_options(WorkStealingScheduler(steal_half=True)) is None


def test_batch_options_rejects_custom_run():
    from repro.core.work_stealing import WorkStealingScheduler

    class Custom(WorkStealingScheduler):
        def run(self, jobset, m, speed=1.0, seed=None, **kw):
            return super().run(jobset, m, speed=speed, seed=seed, **kw)

    assert batch_options(Custom()) is None
    assert batch_options(object()) is None


def test_batch_options_accepts_engine_adapters():
    from repro.api import _EngineScheduler

    assert batch_options(
        _EngineScheduler("flat", k=4, steals_per_tick=8)
    ) == {"k": 4, "steals_per_tick": 8}
    assert batch_options(_EngineScheduler("batch")) == {}
    assert batch_options(_EngineScheduler("work-stealing", k=2)) == {"k": 2}
    assert batch_options(
        _EngineScheduler("flat", victim_policy="round-robin")
    ) is None
    assert batch_options(_EngineScheduler("speedup-fifo")) is None


# ----------------------------------------------------------------------
# repro.run() facade integration (engine="batch")
# ----------------------------------------------------------------------


def test_run_facade_batch_engine():
    spec = WorkloadSpec(BingDistribution(), qps=800.0, n_jobs=40, m=4)
    jobset = spec.build(seed=2)
    flat = _run_flat(jobset, m=4, seed=1, k=2, steals_per_tick=8)
    batch = repro.run("batch", jobset, m=4, seed=1, k=2, steals_per_tick=8)
    assert_identical(flat, batch)
    batch2 = repro.run(
        "batch", flatten_jobset(jobset), m=4, seed=1, k=2, steals_per_tick=8
    )
    assert_identical(flat, batch2)


def test_batch_engine_is_registered():
    from repro.api import ENGINE_NAMES

    assert "batch" in ENGINE_NAMES


def test_sweep_facade_batch_engine_matches_flat(monkeypatch):
    spec = WorkloadSpec(BingDistribution(), qps=800.0, n_jobs=30, m=4)
    grid = {"k": [0, 4]}
    with monkeypatch.context() as mp:
        use_reference_engine(mp)  # the oracle side
        flat = repro.sweep(
            "flat", grid, spec, m=4, reps=2, seed=11, max_workers=1
        )
    batch = repro.sweep(
        "batch", grid, spec, m=4, reps=2, seed=11, max_workers=1
    )
    assert [(c.params, c.metrics) for c in flat.cells] == [
        (c.params, c.metrics) for c in batch.cells
    ]


# ----------------------------------------------------------------------
# Slow-path visibility (ISSUE 10 satellite)
# ----------------------------------------------------------------------


def test_flat_slow_path_warns_once(monkeypatch):
    monkeypatch.setattr(flat_engine, "_SLOW_PATH_WARNED", False)
    jobset = random_instance(7)
    with pytest.warns(RuntimeWarning, match="reference engine"):
        _run_flat(jobset, m=4, seed=8, victim_policy="round-robin")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _run_flat(jobset, m=4, seed=8, victim_policy="round-robin")


def test_flat_native_path_does_not_warn(monkeypatch):
    monkeypatch.setattr(flat_engine, "_SLOW_PATH_WARNED", False)
    jobset = random_instance(7)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _run_flat(jobset, m=4, seed=8, k=2, steals_per_tick=8)
    assert not flat_engine._SLOW_PATH_WARNED


def test_run_facade_emits_dispatch_slow_path(monkeypatch):
    from repro.obs.telemetry import Telemetry

    monkeypatch.setattr(flat_engine, "_SLOW_PATH_WARNED", True)  # quiet
    jobset = random_instance(7)
    tel = Telemetry()
    repro.run(
        "flat", jobset, m=4, seed=8, victim_policy="round-robin",
        telemetry=tel,
    )
    slow = [e for e in tel.events if e["event"] == "dispatch.slow_path"]
    assert len(slow) == 1
    assert slow[0]["reasons"] == ["victim_policy='round-robin'"]

    tel2 = Telemetry()
    repro.run(
        "flat", jobset, m=4, seed=8, k=2, steals_per_tick=8, telemetry=tel2
    )
    assert not [
        e for e in tel2.events if e["event"] == "dispatch.slow_path"
    ]


def test_slow_path_reasons_vocabulary():
    reasons = dispatch.config_reasons(
        "max-deque", True, "weight", object(), object(), False
    )
    assert reasons == (
        "victim_policy='max-deque'",
        "steal_half=True",
        "admission='weight'",
        "trace=<TraceRecorder>",
        "sampler=<SystemSampler>",
        "_fast_forward=False",
    )
    assert dispatch.config_reasons("uniform", False, "fifo", None) == ()
