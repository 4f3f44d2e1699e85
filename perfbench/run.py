"""Repository benchmark: one workload, one seed, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig2-r1 --seed 0 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics (``wall_s``,
``sim_jobs_per_s``, ``cpu_s``, ``peak_rss_mb``, ``setup_s``);
``--trace 1`` prints the per-layer metrics of a serial traced run.
A run measures several input instances made from the seed (see
``INSTANCES`` in ``perfbench/measure.py``); the traced run measures the
first of them.
Either way the simulated outputs are checked (invariants for any seed,
plus the digests stored in ``perfbench/digests.json`` for recorded
seeds) and the last line of standard output is::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The environment is pinned: inherited ``REPRO_*`` variables are recorded
and cleared, the compiled kernel and every cache and temp file live
under ``.bench_build/`` in the repository root, and each measurement
runs in a fresh interpreter (``perfbench/measure.py``).  Host metadata
and the engines each workload ran are printed on the line before the
result.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Optional

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
#: Every child process must finish well inside the 180 s run budget.
CHILD_TIMEOUT_S = 150.0


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a failed simulation)."""


def hermetic_env(tmp: Path) -> tuple:
    """The child environment, and the ``REPRO_*`` knobs it dropped."""
    env = dict(os.environ)
    cleared = {k: env.pop(k) for k in list(env) if k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["REPRO_CEXT_CACHE"] = str(BUILD / "cext")
    env["TMPDIR"] = str(tmp)
    return env, cleared


def child(mode: str, env: Dict[str, str], *args: str) -> Dict[str, Any]:
    """Run ``measure.py <mode>`` and parse its last output line."""
    cmd = [sys.executable, str(HERE / "measure.py"), mode, *args]
    try:
        proc = subprocess.run(
            cmd, env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode}: no result within {exc.timeout} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(
            f"{mode} exited with {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def host_metadata(cext: bool) -> Dict[str, Any]:
    import numpy

    compiler = None
    cc = shutil.which("cc") or shutil.which("gcc") or shutil.which("clang")
    if cc:
        out = subprocess.run(
            [cc, "--version"], capture_output=True, text=True, timeout=30
        )
        compiler = out.stdout.splitlines()[0] if out.stdout else cc
    return {
        "nproc": os.cpu_count(),
        "affinity_cores": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity")
        else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "compiler": compiler,
        "cext": cext,
        "machine": platform.machine(),
    }


def metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


def end_to_end(
    env: Dict[str, str], args: argparse.Namespace, scratch: Path
) -> tuple:
    res = child(
        "run", env,
        "--workload", args.workload, "--size", args.size,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--scratch", str(scratch),
    )
    iterations = res["iterations"]
    timed = iterations[1:]
    wall = across_instances(timed, "wall_s")
    metrics = {
        "wall_s": metric(wall, "s"),
        "sim_jobs_per_s": metric(
            statistics.fmean(i["sim_jobs"] for i in timed) / wall, "jobs/s"
        ),
        "cpu_s": metric(across_instances(timed, "cpu_s"), "s"),
        "peak_rss_mb": metric(res["peak_rss_mb"], "MB"),
        "setup_s": metric(statistics.median(res["setup_s"]), "s"),
    }
    extra = {"timed_iterations": len(timed), "setup_probes": len(res["setup_s"])}
    return iterations, metrics, extra


def across_instances(timed: List[Dict[str, Any]], key: str) -> float:
    """Mean over the run's instances of each instance's median ``key``."""
    by_seed: Dict[int, List[float]] = {}
    for it in timed:
        by_seed.setdefault(it["seed"], []).append(it[key])
    return statistics.fmean(statistics.median(v) for v in by_seed.values())


def per_layer(
    env: Dict[str, str], args: argparse.Namespace, scratch: Path
) -> tuple:
    # The one-time kernel compile, into an empty cache of its own.
    compile_env = dict(env)
    compile_env["REPRO_CEXT_CACHE"] = str(scratch / "cext-compile")
    compile_s = child("kernel", compile_env)["resolve_s"]
    res = child(
        "trace", env,
        "--workload", args.workload, "--size", args.size,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--scratch", str(scratch / "trace"),
        "--spans", str(BUILD / "spans" / f"{args.workload}-{args.seed}.json"),
    )
    layers = res["layers"]
    layers["sim.cext.compile_s"] = compile_s
    metrics = {name: metric(v, unit_of(name)) for name, v in layers.items()}
    return res["iterations"], metrics, {"engines": res["engines"]}


def unit_of(name: str) -> str:
    """Per-layer units follow the name: ``_s`` seconds, ``_ratio``/``_frac``
    ratios, ``_bytes`` bytes, and counts otherwise."""
    for suffix, unit in (
        ("_s", "s"), ("_ratio", "ratio"), ("_frac", "ratio"), ("_bytes", "bytes")
    ):
        if name.endswith(suffix):
            return unit
    return "count"


def digests_by_seed(iterations: List[Dict[str, Any]], key: str) -> Dict:
    """The distinct ``key`` digests seen per instance seed."""
    found: Dict[int, set] = {}
    for it in iterations:
        if key in it:
            found.setdefault(it["seed"], set()).add(it[key])
    return {seed: sorted(d) for seed, d in sorted(found.items())}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="tiny: the benchmark's own tests",
    )
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program to measure: {ROOT / 'src' / 'repro'} "
            f"is missing",
            file=sys.stderr,
        )
        return 2

    (BUILD / "tmp").mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=BUILD / "tmp"))
    try:
        env, cleared = hermetic_env(scratch)
        cext = child("kernel", env)["cext"]
        if args.trace:
            iterations, metrics, extra = per_layer(env, args, scratch)
        else:
            iterations, metrics, extra = end_to_end(env, args, scratch)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    problems = sorted({p for i in iterations for p in i["problems"]})
    attempted = sum(i["sims"] for i in iterations)
    failed = sum(i["sims"] for i in iterations if i["problems"])
    if args.trace:
        metrics["check.fail_frac"] = metric(failed / attempted, "ratio")
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "host": host_metadata(cext),
        "cleared_env": cleared,
        "problems": problems[:20],
        "digests": {
            key: digests_by_seed(iterations, key)
            for key in ("digest", "stats_digest")
        },
        **extra,
    }
    print(json.dumps({"meta": meta}))
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
