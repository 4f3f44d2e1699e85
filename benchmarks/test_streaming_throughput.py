"""Streaming engine throughput vs materialized execution.

The streaming mode's performance contract is that bounded memory is
*not* bought with throughput: generating arrivals chunk by chunk,
retiring completed jobs and maintaining exact online flow statistics
must stay within 10% of materializing the whole instance up front and
running the Python flat-CSR kernel (``_run_flat``) over it.  Streaming
now runs on the compiled kernel, so the sharper comparison is against
materializing and running the same kernel through the dispatcher
(``run_work_stealing``): ``stream_vs_dispatch`` prices the window's
Python side -- segment pulls, compactions, log drains -- and
``bench_gate.py --min-derived stream_vs_dispatch:0.3`` holds it within
~3x of the kernel-only run.

``test_stream_engine_throughput`` and
``test_flat_materialized_throughput`` are the mirrored pair: the same
workload, knobs and seed, one executed from a :class:`StreamSpec` in
2048-job segments, the other materialized inside the timed region (the
stream pays generation during the run, so the flat side must pay it
too).  ``tools/bench_report.py`` turns the pair into the
``stream_vs_flat`` derived ratio, and ``bench_gate.py
--min-derived stream_vs_flat:0.9`` enforces the floor in CI.  The pair
runs with ``quantiles=()`` so it isolates the execution strategy;
``test_stream_engine_online_metrics`` tracks the full-metrics
configuration (three P^2 sketches + windowed utilization) separately,
without a gate, so sketch cost regressions are visible but priced
apart from the engine itself.

The configuration is a sustained-load regime (qps=1000, m=8): enough
queueing that the tick loop does real scheduling work, which is
exactly the regime streaming exists for.
"""

import pytest

from repro.sim.dispatch import run_work_stealing
from repro.sim.flat_engine import _run_flat
from repro.sim.stream_engine import _run_stream
from repro.workloads.distributions import BingDistribution
from repro.workloads.generator import WorkloadSpec
from repro.workloads.stream import StreamSpec

N_JOBS = 10_000
M = 8
ENGINE_KW = dict(k=8, steals_per_tick=8, seed=0)


@pytest.fixture(scope="module")
def stream_spec() -> StreamSpec:
    spec = WorkloadSpec(
        BingDistribution(), qps=1000.0, n_jobs=N_JOBS, m=M, target_chunks=4
    )
    return StreamSpec(spec, chunk_jobs=2048)


@pytest.fixture(scope="module")
def total_work(stream_spec) -> int:
    return int(stream_spec.materialize(0).node_works.sum())


@pytest.mark.benchmark(min_rounds=7, warmup=True)
def test_stream_engine_throughput(benchmark, stream_spec, total_work):
    """Gated side: streaming run, online metrics off (quantiles=())."""
    r = benchmark(
        lambda: _run_stream(
            stream_spec, M, quantiles=(), **ENGINE_KW
        )
    )
    assert r.n_jobs == N_JOBS
    assert r.stats.busy_steps == total_work


@pytest.mark.benchmark(min_rounds=7, warmup=True)
def test_flat_materialized_throughput(benchmark, stream_spec, total_work):
    """Gated side: materialize + the flat kernel, timed together."""
    r = benchmark(
        lambda: _run_flat(stream_spec.materialize(0), M, **ENGINE_KW)
    )
    assert r.stats.busy_steps == total_work


@pytest.mark.benchmark(min_rounds=7, warmup=True)
def test_dispatch_materialized_throughput(benchmark, stream_spec, total_work):
    """Gated side: materialize + the dispatcher's compiled kernel."""
    r = benchmark(
        lambda: run_work_stealing(stream_spec.materialize(0), M, **ENGINE_KW)
    )
    assert r.stats.busy_steps == total_work


def test_stream_engine_online_metrics(benchmark, stream_spec, total_work):
    """Ungated: the same run with the full metrics bundle switched on."""
    r = benchmark(
        lambda: _run_stream(
            stream_spec,
            M,
            quantiles=(0.5, 0.9, 0.99),
            utilization_window=1024,
            **ENGINE_KW,
        )
    )
    assert r.stats.busy_steps == total_work
    assert set(r.quantiles) == {0.5, 0.9, 0.99}
    assert r.utilization is not None
