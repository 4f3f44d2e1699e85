"""Child process of the benchmark: one mode per invocation.

``run.py`` starts this script in a fresh interpreter for every
measurement so that imports, peak RSS and child CPU time belong to the
measured work alone.  Modes:

``setup``
    Import the package, resolve the compiled kernel and construct the
    workload specs, then exit.  The parent times the whole process.
``kernel``
    Resolve the C kernel, compiling it when ``REPRO_CEXT_CACHE`` does
    not hold it yet; print whether it loaded and how long that took.
``run``
    One warm-up iteration, then timed iterations for ``--seconds``
    seconds (at least one per instance), cycling through the run's
    instances.  After each timed iteration a fresh ``setup`` interpreter
    is timed, so the set-up probes are spread over the whole run.
``trace``
    Iterations of the run's first instance, alternately untraced and
    traced, for the per-layer metrics; writes the spans to ``--spans``.

Every mode prints one JSON object as its last line of output.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from workloads import SEARCH_COUNTS, WORKLOADS, Outcome, Workload

DIGESTS = Path(__file__).with_name("digests.json")
#: Inputs one run measures.  Run seed ``s`` cycles its iterations through
#: the instance seeds ``s * INSTANCES`` ... ``s * INSTANCES + INSTANCES - 1``,
#: so that a run's figures average over several inputs: the cost of one
#: input alone moves by up to ±15 % from seed to seed.
INSTANCES = 8


def digest(value: Any) -> str:
    text = json.dumps(value, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()


def instance_seeds(seed: int) -> List[int]:
    """The instance seeds a run with this seed measures."""
    return [seed * INSTANCES + j for j in range(INSTANCES)]


def cpu_seconds() -> float:
    """User + system CPU of this process and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def peak_rss_mb() -> float:
    """Max of this process's and its children's peak RSS (Linux: KiB)."""
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ) / 1024.0


def one_iteration(
    work: Workload, seed: int, scratch: Path, index: int,
    tracer: Optional[Any] = None,
) -> Dict[str, Any]:
    """Run the workload once; time it and check its outputs."""
    it_dir = scratch / f"it{index}"
    it_dir.mkdir(parents=True)
    error = None
    with tracer.installed() if tracer else contextlib.nullcontext():
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        try:
            with tracer.span("workload") if tracer else contextlib.nullcontext():
                outcome = work.run(seed, it_dir)
        except Exception as exc:  # a failed simulation is a measured outcome
            outcome = Outcome(work.planned_sims(), 0, None)
            error = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
        cpu = cpu_seconds() - cpu0
    problems = list(outcome.problems)
    if error is None and outcome.verify is not None:
        try:
            problems.extend(outcome.verify())
        except Exception as exc:
            error = f"check: {type(exc).__name__}: {exc}"
    if error is not None:
        problems.append(error)
    shutil.rmtree(it_dir, ignore_errors=True)
    return {
        "seed": seed,
        "wall_s": wall,
        "cpu_s": cpu,
        "sims": outcome.sims,
        "sim_jobs": outcome.sim_jobs,
        "digest": digest(outcome.outputs),
        "counts": outcome.counts,
        "problems": problems,
    }


def judge(
    iterations: List[Dict[str, Any]], key: str, field: str,
    args: argparse.Namespace,
) -> None:
    """Mark iterations whose ``key`` digest differs from the reference.

    The reference is the ``field`` digest stored in ``digests.json`` for
    the iteration's (workload, size, instance seed) when one is
    recorded, else the digest of the first iteration of that instance:
    outputs must repeat exactly.
    """
    table = json.loads(DIGESTS.read_text())
    first: Dict[int, str] = {}
    for it in iterations:
        entry = table.get(f"{args.workload}/{args.size}/{it['seed']}", {})
        stored = entry.get(field)
        reference = stored or first.setdefault(it["seed"], it[key])
        if it[key] != reference:
            it["problems"].append(
                f"seed {it['seed']}: {key} {it[key][:12]} != "
                f"{'stored' if stored else 'first'} {reference[:12]}"
            )


def timed_setup(args: argparse.Namespace) -> float:
    """Wall time of one fresh interpreter through workload set-up.

    The probe is a reaped child, so it counts towards the children's
    peak RSS; it imports and prepares no more than this process did.
    """
    cmd = [
        sys.executable, __file__, "setup",
        "--workload", args.workload, "--size", args.size,
    ]
    t0 = time.perf_counter()
    subprocess.run(cmd, env=os.environ, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def mode_run(args: argparse.Namespace) -> Dict[str, Any]:
    work = WORKLOADS[args.workload](args.size)
    work.prepare()
    scratch = Path(args.scratch)
    seeds = instance_seeds(args.seed)
    iterations = [one_iteration(work, seeds[0], scratch, 0)]
    setups: List[float] = []
    start = time.perf_counter()
    while (
        len(iterations) <= INSTANCES
        or time.perf_counter() - start < args.seconds
    ):
        seed = seeds[(len(iterations) - 1) % INSTANCES]
        iterations.append(
            one_iteration(work, seed, scratch, len(iterations))
        )
        setups.append(timed_setup(args))
    judge(iterations, "digest", "outputs", args)
    return {
        "iterations": iterations,
        "setup_s": setups,
        "peak_rss_mb": peak_rss_mb(),
    }


def mode_trace(args: argparse.Namespace) -> Dict[str, Any]:
    from spans import Tracer, sim_totals

    work = WORKLOADS[args.workload](args.size)
    work.prepare()
    scratch = Path(args.scratch)
    seed = instance_seeds(args.seed)[0]
    # Warm-up, untimed: lazy imports and first-touch costs settle here.
    plain = [one_iteration(work, seed, scratch, 0)]
    traced: List[Dict[str, Any]] = []
    tracers: List[Tracer] = []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < args.seconds:
        plain.append(one_iteration(work, seed, scratch, len(plain)))
        tracer = Tracer()
        it = one_iteration(
            work, seed, scratch, len(plain) + len(traced), tracer
        )
        it["stats_digest"] = digest(tracer.sims)
        if not all(rec["all_complete"] for rec in tracer.sims):
            it["problems"].append("a simulation left jobs incomplete")
        traced.append(it)
        tracers.append(tracer)

    judge(plain + traced, "digest", "outputs", args)
    judge(traced, "stats_digest", "stats", args)
    counts = tracers[0].counts
    for tracer, it in zip(tracers, traced):
        if tracer.counts != counts:
            it["problems"].append("layer counts differ between iterations")

    busy = [t.self_times() for t in tracers]

    def busy_s(name: str) -> float:
        return statistics.median(b.get(name, 0.0) for b in busy)

    gets = counts["experiments.cache.get.calls"]
    layers = {
        "sim.engine.runs": counts["sim.engine.calls"],
        "sim.engine.busy_s": busy_s("sim.engine"),
        "sim.batch.calls": counts["sim.batch.calls"],
        "sim.batch.reps": counts["sim.batch.reps"],
        "sim.batch.busy_s": busy_s("sim.batch"),
        "sim.flat.runs": counts["sim.flat.calls"],
        "sim.flat.busy_s": busy_s("sim.flat"),
        "sim.stream.busy_s": busy_s("sim.stream"),
        "sim.stream.segments": 0.0,
        "sim.stream.compactions": 0.0,
        "sim.stream.peak_live_jobs": 0.0,
        "workloads.build.busy_s": busy_s("workloads.build"),
        "workloads.build_flat.busy_s": busy_s("workloads.build_flat"),
        "workloads.stream.busy_s": busy_s("workloads.stream"),
        "workloads.jobs_generated": counts["workloads.jobs_generated"],
        "dag.flatten.busy_s": busy_s("dag.flatten"),
        "dag.to_jobset.calls": counts["dag.to_jobset.calls"],
        "dag.to_jobset.busy_s": busy_s("dag.to_jobset"),
        "core.opt.busy_s": busy_s("core.opt"),
        "experiments.cache.hits": counts["experiments.cache.hits"],
        "experiments.cache.misses": counts["experiments.cache.misses"],
        "experiments.cache.hit_ratio": (
            counts["experiments.cache.hits"] / gets if gets else 0.0
        ),
        "experiments.cache.get_s": busy_s("experiments.cache.get"),
        "experiments.cache.put_s": busy_s("experiments.cache.put"),
        "experiments.dispatch.tasks": counts["experiments.dispatch.tasks"],
        "experiments.dispatch.shm_bytes": counts[
            "experiments.dispatch.shm_bytes"
        ],
        "experiments.dispatch.busy_s": busy_s("experiments.dispatch"),
        "experiments.glue.busy_s": busy_s("workload"),
        "trace.overhead_s": (
            statistics.median(it["wall_s"] for it in traced)
            - statistics.median(it["wall_s"] for it in plain[1:])
        ),
    }
    layers.update(sim_totals(tracers[0].sims))
    layers.update(dict.fromkeys(SEARCH_COUNTS, 0.0))
    layers.update(traced[0]["counts"])

    Path(args.spans).parent.mkdir(parents=True, exist_ok=True)
    Path(args.spans).write_text(
        json.dumps(
            {
                "workload": args.workload,
                "seed": seed,
                "size": args.size,
                "iterations": [t.span_rows() for t in tracers],
            }
        )
    )
    return {
        "iterations": plain + traced,
        "layers": {k: float(v) for k, v in layers.items()},
        "engines": {
            name: counts[f"{name}.calls"]
            for name in ("sim.engine", "sim.flat", "sim.batch", "sim.stream")
        },
    }


def mode_setup(args: argparse.Namespace) -> Dict[str, Any]:
    from repro.sim._cext import resolve_batch_kernel

    kernel = resolve_batch_kernel()
    WORKLOADS[args.workload](args.size).prepare()
    return {"cext": kernel is not None}


def mode_kernel(args: argparse.Namespace) -> Dict[str, Any]:
    from repro.sim._cext import resolve_batch_kernel

    t0 = time.perf_counter()
    kernel = resolve_batch_kernel()
    return {"cext": kernel is not None, "resolve_s": time.perf_counter() - t0}


MODES = {
    "run": mode_run,
    "trace": mode_trace,
    "setup": mode_setup,
    "kernel": mode_kernel,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    modes = parser.add_subparsers(dest="mode", required=True)
    modes.add_parser("kernel")
    setup = modes.add_parser("setup")
    run = modes.add_parser("run")
    trace = modes.add_parser("trace")
    for sub in (setup, run, trace):
        sub.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
        sub.add_argument("--size", required=True, choices=("full", "tiny"))
    for sub in (run, trace):
        sub.add_argument("--seed", type=int, required=True)
        sub.add_argument("--seconds", type=float, required=True)
        sub.add_argument("--scratch", required=True)
    trace.add_argument("--spans", required=True)
    args = parser.parse_args(argv)
    result = MODES[args.mode](args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
