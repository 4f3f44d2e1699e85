"""Streaming runs vs recorded outputs of the pure-Python stream engine.

The streaming engine used to run its own Python copy of the tick loop.
Before that loop was deleted in favour of the resumable C kernel, its
outputs were recorded over the grid below into
``tests/sim/golden/stream_engine.json.gz``: for every case the full
``StreamResult.summary()``, the utilization sampler's ``series()`` and
``state_dict()``, and the ``OnlineFlowStats.state_dict()`` (P^2 sketch
markers included).  The kernel-backed engine must reproduce every record
with ``==`` -- floats, sketch markers and window integrals alike -- so the
online metrics keep their exact completion order and float arithmetic.

Regenerate only when a behaviour change is intended::

    PYTHONPATH=src python tests/sim/test_stream_golden.py
"""

from __future__ import annotations

import gzip
import itertools
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Tuple

import pytest

from repro.sim import stream_engine
from repro.workloads.distributions import BingDistribution
from repro.workloads.generator import WorkloadSpec
from repro.workloads.stream import StreamSpec

GOLDEN = Path(__file__).with_name("golden") / "stream_engine.json.gz"

N_JOBS = 80
CHUNKS = (1, 50, 1024)
MS = (1, 4, 16)
KS = (0, 16)
SIGMAS = (1, 4, 64)
SPEEDS = (1.0, 1.5)
QUANTILES = ((), (0.5, 0.9, 0.99))
FAST_FORWARD = (True, False)
COMPACT_MIN = (1, 10**9)
SEEDS = (0, 1, 2)
UTIL_WINDOW = 256
#: One instance for every case: it calibrates its scale once, and the
#: calibration is deterministic, so sharing it changes nothing but time.
DIST = BingDistribution()


def cases() -> List[Tuple[Any, ...]]:
    return list(
        itertools.product(
            CHUNKS, MS, KS, SIGMAS, SPEEDS, QUANTILES, FAST_FORWARD,
            COMPACT_MIN, SEEDS,
        )
    )


def case_id(case: Tuple[Any, ...]) -> str:
    chunk, m, k, sigma, speed, qs, ff, cmin, seed = case
    return (
        f"c{chunk}-m{m}-k{k}-s{sigma}-v{speed}-q{len(qs)}-ff{int(ff)}"
        f"-cm{cmin}-seed{seed}"
    )


def record(case: Tuple[Any, ...]) -> Dict[str, Any]:
    """Run one grid case; returns its JSON-normalised record."""
    chunk, m, k, sigma, speed, qs, ff, cmin, seed = case
    spec = WorkloadSpec(
        DIST, qps=70.0 * m, n_jobs=N_JOBS, m=m, target_chunks=4
    )
    stream = StreamSpec(spec, chunk_jobs=chunk)
    # OnlineFlowStats is engine-internal; capture the run's instance.
    seen: List[Any] = []
    base = stream_engine.OnlineFlowStats

    class Capturing(base):  # type: ignore[misc, valid-type]
        __slots__ = ()

        def __init__(self, *args: Any, **kwargs: Any) -> None:
            super().__init__(*args, **kwargs)
            seen.append(self)

    stream_engine.OnlineFlowStats = Capturing  # type: ignore[misc]
    try:
        sr = stream_engine._run_stream(
            stream, m, speed=speed, k=k, seed=seed, steals_per_tick=sigma,
            quantiles=qs, utilization_window=UTIL_WINDOW,
            _fast_forward=ff, _compact_min=cmin,
        )
    finally:
        stream_engine.OnlineFlowStats = base  # type: ignore[misc]
    (fstats,) = seen
    out = {
        "summary": sr.summary(),
        "series": sr.utilization.series(),
        "util": sr.utilization.state_dict(),
        "fstats": fstats.state_dict(),
    }
    return json.loads(json.dumps(out))


def _golden() -> Dict[str, Any]:
    with gzip.open(GOLDEN, "rt") as fh:
        return json.load(fh)


def test_golden_covers_the_grid():
    assert sorted(_golden()) == sorted(case_id(c) for c in cases())


@pytest.mark.needs_kernel
@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("m", MS)
def test_stream_matches_python_engine_records(chunk, m):
    golden = _golden()
    mismatched = [
        case_id(c)
        for c in cases()
        if c[0] == chunk and c[1] == m and record(c) != golden[case_id(c)]
    ]
    assert not mismatched, mismatched[:10]


if __name__ == "__main__":
    rows = ",\n".join(
        f"{json.dumps(case_id(c))}: "
        f"{json.dumps(record(c), separators=(',', ':'))}"
        for c in sorted(cases(), key=case_id)
    )
    GOLDEN.parent.mkdir(exist_ok=True)
    # mtime=0: regenerating identical records gives identical bytes.
    with open(GOLDEN, "wb") as raw, gzip.GzipFile(
        fileobj=raw, mode="wb", mtime=0
    ) as fh:
        fh.write(("{\n" + rows + "\n}\n").encode())
    print(f"wrote {len(cases())} records to {GOLDEN}", file=sys.stderr)
