"""Streaming engine vs materialized flat engine: bit-identity (ISSUE 7).

The headline claim of ``repro.run(..., stream=...)`` is that streaming
is *purely* an execution strategy: the scheduler, the RNG stream, and
every per-tick decision are identical to ``engine="flat"`` on the
materialized instance -- only the memory profile changes.  The decisive
assertions compare ``max_flow`` with ``==`` (never ``approx``) and the
full ``SimulationStats`` dict field by field, across chunk sizes, k,
sigma, speeds and seeds.  Compaction frequency (``_compact_min``) must
be unobservable for the same reason.

Streaming runs execute on the compiled kernel only; tests that run one
are marked ``needs_kernel`` (skipped where it cannot be built), and
``TestWithoutKernel`` pins the typed error a host without it raises.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.errors import KernelUnavailableError, SweepConfigError
from repro.obs import Telemetry
from repro.sim.flat_engine import _run_flat
from repro.sim.stream_engine import StreamResult, _run_stream
from repro.workloads.distributions import (
    BingDistribution,
    ExponentialDistribution,
)
from repro.workloads.generator import WorkloadSpec
from repro.workloads.stream import StreamSpec
from tests.conftest import use_reference_engine


def make_stream(
    n_jobs=400, chunk_jobs=128, qps=800.0, m=4, target_chunks=4, dist=None
) -> StreamSpec:
    spec = WorkloadSpec(
        dist or BingDistribution(),
        qps=qps,
        n_jobs=n_jobs,
        m=m,
        target_chunks=target_chunks,
    )
    return StreamSpec(spec, chunk_jobs=chunk_jobs)


def assert_equivalent(sr: StreamResult, stream: StreamSpec, **engine_kw):
    """Stream result vs the materialized flat run on the same seed."""
    fr = _run_flat(stream.materialize(sr.seed), sr.m, seed=sr.seed, **engine_kw)
    assert sr.max_flow == fr.max_flow  # bit-identical, never approx
    assert sr.argmax_job == fr.argmax_flow
    assert sr.makespan == fr.makespan
    assert sr.stats.as_dict() == fr.stats.as_dict()
    assert sr.n_jobs == fr.n_jobs
    # Running sum vs numpy pairwise sum: same flows, different order.
    assert sr.mean_flow == pytest.approx(fr.mean_flow, rel=1e-12)
    return fr


# ----------------------------------------------------------------------
# Bit-identity across the parameter space
# ----------------------------------------------------------------------


@pytest.mark.needs_kernel
class TestBitIdentity:
    @pytest.mark.parametrize(
        "n,chunk,m,k,sigma,speed",
        [
            (400, 128, 4, 0, 1, 1.0),
            (400, 64, 8, 16, 1, 1.0),
            (800, 100, 16, 16, 4, 1.0),
            (400, 400, 4, 4, 4, 1.5),  # single chunk, augmented speed
            (300, 50, 1, 0, 1, 1.0),  # one worker
        ],
    )
    def test_matches_materialized_flat(self, n, chunk, m, k, sigma, speed):
        stream = make_stream(n_jobs=n, chunk_jobs=chunk, m=m)
        sr = _run_stream(
            stream, m, speed=speed, k=k, seed=7, steals_per_tick=sigma
        )
        assert_equivalent(sr, stream, speed=speed, k=k, steals_per_tick=sigma)

    @pytest.mark.parametrize("seed", [0, 1, 2026])
    def test_across_seeds(self, seed):
        stream = make_stream(n_jobs=350, chunk_jobs=97)
        sr = _run_stream(stream, 4, k=4, seed=seed)
        assert sr.seed == seed
        assert_equivalent(sr, stream, k=4)

    def test_exponential_distribution(self):
        stream = make_stream(
            n_jobs=300, chunk_jobs=80, dist=ExponentialDistribution(mean_ms=2.0)
        )
        sr = _run_stream(stream, 4, k=8, seed=3)
        assert_equivalent(sr, stream, k=8)

    def test_no_fast_forward_still_identical(self):
        stream = make_stream(n_jobs=200, chunk_jobs=64)
        sr = _run_stream(stream, 4, k=4, seed=2, _fast_forward=False)
        assert_equivalent(sr, stream, k=4, _fast_forward=False)

    def test_compaction_frequency_is_unobservable(self):
        stream = make_stream(n_jobs=500, chunk_jobs=50)
        eager = _run_stream(stream, 4, k=4, seed=9, _compact_min=1)
        lazy = _run_stream(stream, 4, k=4, seed=9, _compact_min=10**9)
        assert eager.max_flow == lazy.max_flow
        assert eager.stats.as_dict() == lazy.stats.as_dict()
        assert eager.quantiles == lazy.quantiles
        assert eager.compactions > 0
        assert lazy.compactions == 0

    def test_seed_none_is_reproducible_after_the_fact(self):
        stream = make_stream(n_jobs=150, chunk_jobs=50)
        sr = _run_stream(stream, 4, k=4, seed=None)
        assert isinstance(sr.seed, int)
        rerun = _run_stream(stream, 4, k=4, seed=sr.seed)
        assert rerun.max_flow == sr.max_flow
        assert rerun.stats.as_dict() == sr.stats.as_dict()


# ----------------------------------------------------------------------
# Online metrics surfaced on the result
# ----------------------------------------------------------------------


@pytest.mark.needs_kernel
class TestOnlineMetrics:
    def test_quantile_estimates_near_exact_flows(self):
        stream = make_stream(n_jobs=800, chunk_jobs=128)
        sr = _run_stream(stream, 4, k=4, seed=1, quantiles=(0.5, 0.9, 0.99))
        fr = _run_flat(stream.materialize(1), 4, seed=1, k=4)
        flows = fr.flows
        for q, est in sr.quantiles.items():
            rank = float(np.mean(flows <= est))
            assert abs(rank - q) < 0.05, (q, est)

    def test_utilization_bundle(self):
        stream = make_stream(n_jobs=400, chunk_jobs=100)
        sr = _run_stream(stream, 4, k=4, seed=6, utilization_window=256)
        assert sr.utilization is not None
        assert 0.0 < sr.utilization.overall() <= 1.0
        # Work conservation ties the integral to the stats counters: the
        # step-hold integral covers [first, last) sample ticks, so only
        # the final sampled tick's busy count (<= m) is outstanding.
        gap = sr.stats.busy_steps - sr.utilization.busy_integral
        assert 0 <= gap <= sr.m
        assert all(0.0 <= f <= 1.0 for _, f in sr.utilization.series())

    def test_utilization_off_by_default(self):
        stream = make_stream(n_jobs=100, chunk_jobs=50)
        assert _run_stream(stream, 2, seed=0).utilization is None

    def test_memory_bound_observable(self):
        """Chunked runs never hold anywhere near all jobs live."""
        stream = make_stream(n_jobs=1000, chunk_jobs=100)
        sr = _run_stream(stream, 4, k=4, seed=4)
        assert sr.segments_generated == 10
        assert sr.peak_live_jobs < 1000
        assert sr.compactions > 0

    def test_summary_is_flat_and_complete(self):
        stream = make_stream(n_jobs=120, chunk_jobs=60)
        sr = _run_stream(stream, 4, seed=0, quantiles=(0.5, 0.99))
        s = sr.summary()
        for key in (
            "max_flow", "mean_flow", "p50_flow", "p99_flow", "makespan",
            "peak_live_jobs", "segments_generated", "busy_steps",
        ):
            assert key in s, key
        assert s["max_flow"] == sr.max_flow
        assert all(np.isscalar(v) or v is None for v in s.values())


# ----------------------------------------------------------------------
# Edge cases and validation
# ----------------------------------------------------------------------


class TestEdgeCases:
    @pytest.mark.needs_kernel
    def test_single_job_stream(self):
        stream = make_stream(n_jobs=1, chunk_jobs=1)
        sr = _run_stream(stream, 4, seed=0)
        assert sr.n_jobs == 1
        assert sr.segments_generated == 1
        assert_equivalent(sr, stream)

    def test_rejects_non_stream_input(self):
        spec = make_stream().spec
        with pytest.raises(TypeError, match="StreamSpec"):
            _run_stream(spec, 4, seed=0)

    @pytest.mark.parametrize(
        "kw,match",
        [
            (dict(m=0), "m"),
            (dict(m=4, speed=0.0), "speed"),
            (dict(m=4, k=-1), "k"),
            (dict(m=4, steals_per_tick=0), "steals_per_tick"),
            (dict(m=4, checkpoint_every=0), "checkpoint_every"),
            (dict(m=4, _compact_min=0), "_compact_min"),
        ],
    )
    def test_parameter_validation(self, kw, match):
        stream = make_stream(n_jobs=10, chunk_jobs=10)
        m = kw.pop("m")
        with pytest.raises(ValueError, match=match):
            _run_stream(stream, m, seed=0, **kw)

    def test_resume_requires_checkpoint_dir(self):
        stream = make_stream(n_jobs=10, chunk_jobs=10)
        with pytest.raises(SweepConfigError, match="checkpoint_dir"):
            _run_stream(stream, 4, seed=0, resume=True)

    @pytest.mark.needs_kernel
    def test_max_ticks_overload_guard(self):
        stream = make_stream(n_jobs=100, chunk_jobs=50)
        with pytest.raises(RuntimeError, match="max_ticks"):
            _run_stream(stream, 4, seed=0, max_ticks=3)


# ----------------------------------------------------------------------
# Facade: repro.run(..., stream=...)
# ----------------------------------------------------------------------


class TestRunFacade:
    @pytest.mark.needs_kernel
    def test_run_stream_matches_run_flat(self):
        stream = make_stream(n_jobs=300, chunk_jobs=75)
        sr = repro.run("flat", stream=stream, m=4, seed=3, k=4)
        fr = repro.run("flat", stream.materialize(3), m=4, seed=3, k=4)
        assert isinstance(sr, StreamResult)
        assert sr.max_flow == fr.max_flow
        assert sr.stats.as_dict() == fr.stats.as_dict()

    @pytest.mark.needs_kernel
    def test_run_forwards_engine_kwargs(self):
        stream = make_stream(n_jobs=150, chunk_jobs=50)
        sr = repro.run(
            "flat", stream=stream, m=4, seed=0,
            quantiles=(0.5,), utilization_window=128,
        )
        assert set(sr.quantiles) == {0.5}
        assert sr.utilization is not None

    @pytest.mark.needs_kernel
    def test_telemetry_wraps_stream_events(self):
        stream = make_stream(n_jobs=100, chunk_jobs=25)
        tel = Telemetry()
        repro.run("flat", stream=stream, m=4, seed=0, telemetry=tel)
        names = [e["event"] for e in tel.events]
        assert "run.start" in names and "run.done" in names
        assert "stream.start" in names and "stream.done" in names
        assert names.index("run.start") < names.index("stream.start")
        assert names.index("stream.done") < names.index("run.done")
        assert any(n == "stream.segment" for n in names)
        by_name = {e["event"]: e for e in tel.events}
        for name in ("run.start", "run.done"):
            assert by_name[name]["engine"] == "cext"
            assert by_name[name]["reason"] == "stream window"
        done = by_name["stream.done"]
        assert done["returns"]["done"] == 1
        assert done["returns"]["need_segment"] == 3  # 4 segments, 1 up front
        assert done["kernel_calls"] == sum(done["returns"].values())

    # -- misconfiguration: every path raises SweepConfigError ----------

    def test_stream_plus_jobset_rejected(self, single_job_set):
        stream = make_stream(n_jobs=10, chunk_jobs=10)
        with pytest.raises(SweepConfigError, match="never both"):
            repro.run("flat", single_job_set, stream=stream, m=4)

    def test_stream_requires_flat_engine(self):
        stream = make_stream(n_jobs=10, chunk_jobs=10)
        with pytest.raises(SweepConfigError, match="valid combinations"):
            repro.run("work-stealing", stream=stream, m=4, seed=0)

    def test_stream_rejects_scheduler_instance(self):
        stream = make_stream(n_jobs=10, chunk_jobs=10)
        with pytest.raises(SweepConfigError, match="valid combinations"):
            repro.run(repro.FifoScheduler(), stream=stream, m=4)

    def test_stream_wants_streamspec_not_workloadspec(self):
        spec = make_stream().spec
        with pytest.raises(SweepConfigError, match=r"\.stream\(\)"):
            repro.run("flat", stream=spec, m=4, seed=0)

    def test_no_instance_at_all_rejected(self):
        with pytest.raises(SweepConfigError, match="valid combinations"):
            repro.run("flat", m=4, seed=0)

    def test_sweep_rejects_stream(self):
        stream = make_stream(n_jobs=10, chunk_jobs=10)
        with pytest.raises(SweepConfigError, match="repro.run"):
            repro.sweep(
                repro.FifoScheduler,
                {"m": [2]},
                make_stream().spec,
                stream=stream,
            )


# ----------------------------------------------------------------------
# Hosts without the compiled kernel
# ----------------------------------------------------------------------


class TestWithoutKernel:
    """No Python fallback: a typed error that says what to do instead."""

    def test_stream_run_raises_kernel_unavailable(self, monkeypatch):
        use_reference_engine(monkeypatch)
        stream = make_stream(n_jobs=10, chunk_jobs=10)
        with pytest.raises(KernelUnavailableError) as info:
            _run_stream(stream, 4, seed=0)
        assert info.value.reason == "REPRO_CEXT=0"
        assert "REPRO_CEXT=0" in str(info.value)
        assert "materialize(seed)" in str(info.value)

    def test_facade_raises_too_and_materialized_still_runs(self, monkeypatch):
        use_reference_engine(monkeypatch)
        stream = make_stream(n_jobs=30, chunk_jobs=10)
        with pytest.raises(KernelUnavailableError):
            repro.run("flat", stream=stream, m=4, seed=1)
        fr = repro.run("flat", stream.materialize(1), m=4, seed=1)
        assert fr.n_jobs == 30
