"""Timed spans at the program's layer boundaries, installed from outside.

:class:`Tracer` wraps the public functions each layer exposes (see
:data:`FUNCTION_LAYERS` and :data:`METHOD_LAYERS`) so that every call
records a span -- name, start, end, parent -- kept in memory and written
once at the end.  A layer's self time is its spans' duration minus the
time covered by their direct children.  The same wrappers count work at
the boundary (instances built, cache hits, shared-memory bytes) and
collect every simulation result, so the traced run can digest the full
:class:`~repro.sim.result.SimulationStats` of each simulation.

The program itself is not modified: wrappers replace module and class
attributes for the duration of :meth:`Tracer.installed` and are removed
afterwards.  The workloads run serially (``max_workers=1``), so every
call happens in this process.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, Iterator, List, Tuple

import numpy as np

#: (module, function) -> span name.  Every module that bound the
#: function by name is patched too.
FUNCTION_LAYERS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.sim.engine", "_run_work_stealing", "sim.engine"),
    ("repro.sim.flat_engine", "_run_flat", "sim.flat"),
    ("repro.sim.batch_engine", "run_batch", "sim.batch"),
    ("repro.sim.stream_engine", "_run_stream", "sim.stream"),
    ("repro.core.opt", "opt_lower_bound", "core.opt"),
    ("repro.dag.flat", "flatten_jobset", "dag.flatten"),
    ("repro.dag.flat", "to_jobset", "dag.to_jobset"),
    ("repro.experiments.parallel", "parallel_map", "experiments.dispatch"),
)

#: (module, class, method) -> span name.
METHOD_LAYERS: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.workloads.generator", "WorkloadSpec", "build", "workloads.build"),
    (
        "repro.workloads.generator",
        "WorkloadSpec",
        "build_flat",
        "workloads.build_flat",
    ),
    (
        "repro.workloads.stream",
        "StreamCursor",
        "next_segment",
        "workloads.stream",
    ),
    ("repro.experiments.cache", "SweepCache", "load_cell", "experiments.cache.get"),
    (
        "repro.experiments.cache",
        "SweepCache",
        "load_instance",
        "experiments.cache.get",
    ),
    ("repro.experiments.cache", "SweepCache", "store_cell", "experiments.cache.put"),
    (
        "repro.experiments.cache",
        "SweepCache",
        "store_instance",
        "experiments.cache.put",
    ),
    (
        "repro.experiments.parallel",
        "SharedInstance",
        "__init__",
        "experiments.shm_publish",
    ),
)

#: Span names whose results are simulations.
SIM_LAYERS = ("sim.engine", "sim.flat", "sim.batch", "sim.stream", "core.opt")
#: The work-stealing engines whose stats add up to the ``sim.*`` counts.
TICK_LAYERS = ("sim.engine", "sim.flat", "sim.batch", "sim.stream")


class Tracer:
    """In-memory span recorder plus boundary counters."""

    def __init__(self) -> None:
        #: [id, parent id or -1, name, start, end]
        self.spans: List[List[Any]] = []
        self._stack: List[int] = []
        self.counts: Counter = Counter()
        #: one record per simulation, in call order
        self.sims: List[Dict[str, Any]] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [sid, parent, name, time.perf_counter(), None]
        self.spans.append(record)
        self._stack.append(sid)
        try:
            yield
        finally:
            record[4] = time.perf_counter()
            self._stack.pop()

    def _inside_sim(self) -> bool:
        """Whether an enclosing span is already a simulation layer."""
        return any(self.spans[s][2] in SIM_LAYERS for s in self._stack)

    # -- wrappers -------------------------------------------------------

    def _wrap(self, name: str, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            nested_sim = name in SIM_LAYERS and tracer._inside_sim()
            with tracer.span(name):
                result = fn(*args, **kwargs)
            tracer._account(name, args, result, nested_sim)
            return result

        return wrapper

    def _account(
        self, name: str, args: tuple, result: Any, nested: bool
    ) -> None:
        counts = self.counts
        counts[f"{name}.calls"] += 1
        if name in ("workloads.build", "workloads.build_flat"):
            counts["workloads.jobs_generated"] += _n_jobs(result)
        elif name == "workloads.stream" and result is not None:
            counts["workloads.jobs_generated"] += result.n_jobs
        elif name == "experiments.cache.get":
            counts["experiments.cache.hits" if result is not None
                   else "experiments.cache.misses"] += 1
        elif name == "experiments.dispatch":
            counts["experiments.dispatch.tasks"] += len(args[1])
        elif name == "experiments.shm_publish":
            counts["experiments.dispatch.shm_bytes"] += args[1].nbytes
        if name not in SIM_LAYERS or nested:
            return
        results = result if name == "sim.batch" else [result]
        if name == "sim.batch":
            counts["sim.batch.reps"] += len(results)
        for res in results:
            self.sims.append(_sim_record(name, res))

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Patch every layer boundary; restore the originals on exit."""
        undo: List[Tuple[Any, str, Any]] = []
        try:
            for module_name, attr, name in FUNCTION_LAYERS:
                original = getattr(importlib.import_module(module_name), attr)
                wrapper = self._wrap(name, original)
                for module in list(sys.modules.values()):
                    if not getattr(module, "__name__", "").startswith("repro"):
                        continue
                    if getattr(module, attr, None) is original:
                        undo.append((module, attr, original))
                        setattr(module, attr, wrapper)
            for module_name, cls_name, attr, name in METHOD_LAYERS:
                cls = getattr(importlib.import_module(module_name), cls_name)
                original = cls.__dict__[attr]
                undo.append((cls, attr, original))
                setattr(cls, attr, self._wrap(name, original))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    # -- reduction ------------------------------------------------------

    def self_times(self) -> Dict[str, float]:
        """Per-name self time: span durations minus their children's."""
        child_time: Dict[int, float] = defaultdict(float)
        for _, parent, _, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        busy: Dict[str, float] = defaultdict(float)
        for sid, _, name, start, end in self.spans:
            busy[name] += (end - start) - child_time[sid]
        return dict(busy)

    def span_rows(self) -> List[Dict[str, Any]]:
        """Every span as a dict, times relative to the first span."""
        t0 = self.spans[0][3] if self.spans else 0.0
        return [
            {
                "id": sid,
                "parent": parent,
                "name": name,
                "start_s": round(start - t0, 9),
                "end_s": round(end - t0, 9),
            }
            for sid, parent, name, start, end in self.spans
        ]


def _n_jobs(instance: Any) -> int:
    n = getattr(instance, "n_jobs", None)
    return int(n) if n is not None else len(instance)


def _sim_record(layer: str, res: Any) -> Dict[str, Any]:
    """The digestable content of one simulation result."""
    record = {
        "layer": layer,
        "scheduler": res.scheduler,
        "n_jobs": int(res.n_jobs),
        "max_flow": float(res.max_flow),
        "makespan": float(res.makespan),
        "stats": res.stats.as_dict(),
    }
    if layer == "sim.stream":
        record["all_complete"] = res.stats.admissions == res.n_jobs
        record.update(
            peak_live_jobs=res.peak_live_jobs,
            segments=res.segments_generated,
            compactions=res.compactions,
            argmax_job=res.argmax_job,
        )
    else:
        record["all_complete"] = bool(np.isfinite(res.completions).all()) and (
            layer == "core.opt" or res.stats.admissions == res.n_jobs
        )
    return record


def sim_totals(sims: List[Dict[str, Any]]) -> Dict[str, float]:
    """Exact simulated work of the work-stealing runs in ``sims``."""
    totals: Counter = Counter()
    for rec in sims:
        if rec["layer"] not in TICK_LAYERS:
            continue
        stats = rec["stats"]
        totals["sim.ticks"] += stats["elapsed_ticks"] or 0
        totals["sim.ff_skipped_ticks"] += stats["ff_skipped_ticks"] or 0
        totals["sim.steal_attempts"] += stats["steal_attempts"] or 0
        totals["failed_steals"] += stats["failed_steals"] or 0
        if rec["layer"] == "sim.stream":
            totals["sim.stream.segments"] += rec["segments"]
            totals["sim.stream.compactions"] += rec["compactions"]
            totals["sim.stream.peak_live_jobs"] = max(
                totals["sim.stream.peak_live_jobs"], rec["peak_live_jobs"]
            )
    attempts = totals["sim.steal_attempts"]
    out = {k: float(v) for k, v in totals.items() if k != "failed_steals"}
    out["sim.steal_success_ratio"] = (
        (attempts - totals["failed_steals"]) / attempts if attempts else 0.0
    )
    return out

