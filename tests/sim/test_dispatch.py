"""The one dispatch point: every entry vs the reference engine, at R=1.

:mod:`repro.sim.dispatch` sends every eligible work-stealing run to the
compiled kernel and everything else to the reference engine.  The
contract is that the route never changes a number.  This suite pins it
from every public entry -- :meth:`WorkStealingScheduler.run`,
``repro.run(...)`` (scheduler instance and the ``work-stealing`` /
``flat`` / ``batch`` engine names) and the sweep's ``_EngineScheduler``
adapter -- against :func:`repro.sim.engine._run_work_stealing` (the
oracle, never dispatched itself) on schedules, ``SimulationStats``,
scheduler label and the ``Generator`` post-state; and it pins the route
and its reason for each knob that keeps a run off the kernel.

The suite passes with and without the kernel (``REPRO_CEXT=0``): the
identity checks hold on either route, and route expectations follow the
kernel's availability in this process.
"""

import dataclasses

import numpy as np
import pytest

import repro
from repro.api import _EngineScheduler
from repro.core.work_stealing import (
    AdmitFirstScheduler,
    WeightedWorkStealingScheduler,
    WorkStealingScheduler,
)
from repro.dag.builders import chain, single_node
from repro.dag.flat import flatten_jobset
from repro.dag.job import jobs_from_dags
from repro.obs.telemetry import Telemetry
from repro.sim import _cext, dispatch
from repro.sim.engine import _run_work_stealing
from repro.sim.sampling import SystemSampler
from repro.sim.trace import TraceRecorder
from repro.workloads import (
    BingDistribution,
    FinanceDistribution,
    LogNormalDistribution,
    WorkloadSpec,
    adversarial_instance,
)

from tests.sim.test_flat_kernel_equivalence import (
    assert_identical,
    random_instance,
)


def kernel_here():
    return _cext.kernel_unavailable_reason() is None


def expected_route():
    if kernel_here():
        return ("cext", "native scope")
    return ("reference", _cext.kernel_unavailable_reason())


KNOBS = ("k", "steals_per_tick")


def entries(instance, m, seed, **kwargs):
    """Every dispatched entry point, run once each with a fresh seed."""
    sched = WorkStealingScheduler(**kwargs)
    knobs = {name: kwargs[name] for name in KNOBS if name in kwargs}
    yield "WorkStealingScheduler.run", sched.run(instance, m=m, seed=seed())
    yield "repro.run(scheduler)", repro.run(sched, instance, m=m, seed=seed())
    for engine in ("work-stealing", "flat", "batch"):
        yield f"repro.run({engine!r})", repro.run(
            engine, instance, m=m, seed=seed(), **knobs
        )
        yield f"_EngineScheduler({engine!r}).run", _EngineScheduler(
            engine, **knobs
        ).run(instance, m=m, seed=seed())


def assert_every_entry_matches(instance, m, run_seed=7, **kwargs):
    """Each entry vs the reference engine: results and RNG post-state."""
    oracle_rng = np.random.default_rng(run_seed)
    oracle_input = instance
    if not isinstance(instance, repro.JobSet):
        oracle_input = repro.to_jobset(instance)
    ref = _run_work_stealing(oracle_input, m, seed=oracle_rng, **kwargs)
    oracle_next = oracle_rng.integers(0, 1 << 62)
    rngs = []

    def seed():
        rngs.append(np.random.default_rng(run_seed))
        return rngs[-1]

    n = 0
    for name, got in entries(instance, m, seed, **kwargs):
        assert_identical(ref, got)
        assert rngs[n].integers(0, 1 << 62) == oracle_next, (
            f"{name}: Generator post-state diverged"
        )
        n += 1
    assert n == 8
    # Integer seeds are recorded on the result on every route.
    plain = WorkStealingScheduler(**kwargs).run(instance, m=m, seed=run_seed)
    assert_identical(
        _run_work_stealing(oracle_input, m, seed=run_seed, **kwargs), plain
    )


@pytest.mark.parametrize(
    "case_seed,m,kwargs",
    [
        (0, 2, dict(k=0, steals_per_tick=1)),
        (1, 3, dict(k=1, steals_per_tick=1)),
        (2, 4, dict(k=4, steals_per_tick=8)),
        (3, 8, dict(k=3, steals_per_tick=16)),
        (4, 16, dict(k=16, steals_per_tick=64)),
    ],
)
def test_random_instances(case_seed, m, kwargs):
    assert_every_entry_matches(random_instance(case_seed), m, **kwargs)


@pytest.mark.parametrize(
    "dist", [BingDistribution(), FinanceDistribution(), LogNormalDistribution()]
)
@pytest.mark.parametrize("k", [0, 16])
def test_paper_distributions(dist, k):
    spec = WorkloadSpec(dist, qps=900.0, n_jobs=60, m=16)
    assert_every_entry_matches(
        spec.build(seed=3), 16, k=k, steals_per_tick=64
    )


@pytest.mark.parametrize("n_jobs", [8, 32])
def test_lemma_5_1_adversarial(n_jobs):
    jobset, m = adversarial_instance(n_jobs)
    assert_every_entry_matches(jobset, m, k=0, steals_per_tick=1)
    assert_every_entry_matches(jobset, m, k=2 * m, steals_per_tick=64)


def test_chain_dags():
    rng = np.random.default_rng(4)
    dags = [
        chain(rng.integers(1, 5, size=int(rng.integers(3, 20))).tolist())
        for _ in range(6)
    ] + [single_node(work=2)]
    arrivals = np.cumsum(rng.exponential(2.0, size=len(dags)))
    jobset = jobs_from_dags(dags, arrivals.tolist())
    assert_every_entry_matches(jobset, 3, k=1, steals_per_tick=2)


def test_single_worker():
    assert_every_entry_matches(random_instance(5), 1, k=2, steals_per_tick=1)


def test_empty_instance():
    empty = jobs_from_dags([], [])
    assert_every_entry_matches(empty, 4, k=2, steals_per_tick=4)
    assert_every_entry_matches(flatten_jobset(empty), 4, k=0)


def test_flat_instance_input():
    jobset = random_instance(6, n_jobs=9)
    assert_every_entry_matches(
        flatten_jobset(jobset), 4, k=2, steals_per_tick=8
    )


def test_unsorted_hand_built_arrivals():
    flat = flatten_jobset(random_instance(7, n_jobs=5))
    unsorted = dataclasses.replace(
        flat, arrivals=np.ascontiguousarray(flat.arrivals[::-1])
    )
    assert dispatch._dispatch(unsorted) == ("reference", "unsorted arrivals")
    assert_every_entry_matches(unsorted, 4, k=2, steals_per_tick=4)


# ----------------------------------------------------------------------
# Routes and reasons
# ----------------------------------------------------------------------


def test_eligible_configuration_routes_to_the_kernel():
    assert dispatch._dispatch(random_instance(0), k=16) == expected_route()
    assert dispatch.scheduler_route(
        WorkStealingScheduler(k=16, steals_per_tick=64)
    ) == expected_route()
    assert dispatch.scheduler_route(AdmitFirstScheduler()) == expected_route()
    assert WorkStealingScheduler().consumes_flat is kernel_here()
    assert _EngineScheduler("work-stealing").consumes_flat is kernel_here()


@pytest.mark.parametrize(
    "kwargs,reason",
    [
        (dict(victim_policy="round-robin"), "victim_policy='round-robin'"),
        (dict(victim_policy="max-deque"), "victim_policy='max-deque'"),
        (dict(steal_half=True), "steal_half=True"),
        (dict(admission="weight"), "admission='weight'"),
        (dict(trace=TraceRecorder()), "trace=<TraceRecorder>"),
        (dict(sampler=SystemSampler(every=5)), "sampler=<SystemSampler>"),
        (dict(_fast_forward=False), "_fast_forward=False"),
    ],
)
def test_each_ineligible_knob_routes_to_reference(kwargs, reason):
    jobset = random_instance(3)
    assert dispatch._dispatch(jobset, k=2, **kwargs) == ("reference", reason)
    # ... and the dispatched run is the reference run.
    tel = Telemetry()
    got = dispatch.run_work_stealing(
        jobset, 4, seed=1, k=2, telemetry=tel, **kwargs
    )
    (slow,) = tel.of_kind("dispatch.slow_path")
    assert slow["engine"] == "reference" and slow["reason"] == reason
    fresh = {
        name: (
            TraceRecorder() if name == "trace"
            else SystemSampler(every=5) if name == "sampler" else value
        )
        for name, value in kwargs.items()
    }
    assert_identical(
        _run_work_stealing(jobset, 4, seed=1, k=2, **fresh), got
    )


def test_reasons_accumulate_in_a_fixed_order():
    engine, reason = dispatch._dispatch(
        None, steal_half=True, admission="weight"
    )
    assert engine == "reference"
    assert reason == "steal_half=True, admission='weight'"


def test_schedulers_outside_the_family_are_reference():
    assert dispatch.scheduler_route(WeightedWorkStealingScheduler()) == (
        "reference",
        "admission='weight'",
    )
    assert dispatch.scheduler_route(repro.FifoScheduler()) == (
        "reference",
        "no compiled kernel for fifo",
    )

    class Custom(WorkStealingScheduler):
        def run(self, jobset, m, speed=1.0, seed=None, **kw):
            return super().run(jobset, m, speed=speed, seed=seed, **kw)

    assert dispatch.scheduler_kwargs(Custom()) is None
    assert Custom().consumes_flat is False


def test_cext_disabled_routes_to_reference(reference_engine):
    jobset = random_instance(2)
    assert dispatch._dispatch(jobset, k=4) == ("reference", "REPRO_CEXT=0")
    tel = Telemetry()
    got = repro.run("work-stealing", jobset, m=4, seed=3, k=4, telemetry=tel)
    (slow,) = tel.of_kind("dispatch.slow_path")
    assert slow["reason"] == "REPRO_CEXT=0"
    (done,) = tel.of_kind("run.done")
    assert (done["engine"], done["reason"]) == ("reference", "REPRO_CEXT=0")
    assert_identical(_run_work_stealing(jobset, 4, seed=3, k=4), got)
    assert WorkStealingScheduler().consumes_flat is False


def test_missing_compiler_routes_to_reference(reference_engine, monkeypatch):
    monkeypatch.delenv("REPRO_CEXT")
    monkeypatch.setattr(_cext, "_find_compiler", lambda: None)
    engine, reason = dispatch._dispatch(random_instance(1))
    assert engine == "reference"
    assert "no C compiler" in reason
    tel = Telemetry()
    repro.run(
        WorkStealingScheduler(k=2), random_instance(1), m=4, seed=0,
        telemetry=tel,
    )
    (slow,) = tel.of_kind("dispatch.slow_path")
    assert "no C compiler" in slow["reason"]


def test_run_events_carry_the_route():
    jobset = random_instance(4)
    tel = Telemetry()
    repro.run(WorkStealingScheduler(k=2), jobset, m=4, seed=0, telemetry=tel)
    (start,) = tel.of_kind("run.start")
    (done,) = tel.of_kind("run.done")
    assert (start["engine"], start["reason"]) == expected_route()
    assert (done["engine"], done["reason"]) == expected_route()
    if kernel_here():
        assert tel.of_kind("dispatch.slow_path") == []

    tel2 = Telemetry()
    repro.run(repro.FifoScheduler(), jobset, m=4, telemetry=tel2)
    (done,) = tel2.of_kind("run.done")
    assert (done["engine"], done["reason"]) == (
        "reference",
        "no compiled kernel for fifo",
    )


def test_route_never_enters_results():
    jobset = random_instance(5)
    result = WorkStealingScheduler(k=2).run(jobset, m=4, seed=0)
    assert "engine" not in result.summary()
    assert "cext" not in repr(result.stats.as_dict())


def test_reference_engine_is_never_dispatched(monkeypatch):
    """The oracle calls straight into the tick loop: no route lookup."""
    calls = []
    monkeypatch.setattr(
        dispatch, "_route", lambda *a, **k: calls.append(1) or ("cext", ())
    )
    _run_work_stealing(random_instance(0), 4, seed=0, k=2)
    assert calls == []


def test_validation_errors_match_the_reference():
    jobset = random_instance(1)
    for bad in (
        dict(m=0),
        dict(m=2, speed=0.0),
        dict(m=2, k=-1),
        dict(m=2, steals_per_tick=0),
        dict(m=2, admission="lifo"),
    ):
        with pytest.raises(ValueError) as ref_exc:
            _run_work_stealing(jobset, **bad)
        with pytest.raises(ValueError) as got_exc:
            dispatch.run_work_stealing(jobset, **bad)
        assert str(ref_exc.value) == str(got_exc.value)
