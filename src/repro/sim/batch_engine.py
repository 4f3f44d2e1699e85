"""Rep-batched execution: one kernel arena for R replicates (ISSUE 10).

Every experiment layer above the simulator -- figure sweeps,
:func:`repro.sweep`, successive-halving rounds in :func:`repro.search`,
ablation deltas -- evaluates *many replicate instances of the same
cell*.  The flat kernel (:mod:`repro.sim.flat_engine`) processes one
instance per call, paying the Python tick-loop cost R times over.  This
module batches the replicates instead:

* :func:`run_batch` concatenates R :class:`~repro.dag.flat.FlatInstance`
  replicates into one block-structured SoA arena -- node/job/edge
  arrays rebased onto a shared id space in a single vectorized pass,
  worker state at rep-offset ``r * m``, one 4096-slot victim-draw block
  per rep -- and executes each replicate's tick loop in the compiled C
  kernel (:mod:`repro.sim._cext`).  Per-rep clocks are fully
  independent: each replicate fast-forwards on its own schedule, and
  the arena exists so the *fixed* per-run Python cost (table builds,
  dispatch, allocation) is paid once for the whole batch.
* **RNG fidelity.**  Each replicate owns a Generator seeded exactly as
  the serial run would seed it.  The C kernel never generates a random
  number: when a draw block is exhausted it calls back into Python,
  which refills the block with the same ``rng.integers(0, m - 1,
  size=4096)`` call (same cadence) the flat kernel would make -- so the
  post-run ``PCG64`` state is bit-identical to serial execution, not
  merely the victim sequence.
* **Bit-identity.**  Results are identical per rep to running
  the flat kernel (``_run_flat``) R times: same completions, same
  :class:`~repro.sim.result.SimulationStats`, same RNG post-state
  (``tests/sim/test_batch_engine.py`` fuzzes this).  Configurations
  outside the kernel's native scope -- non-uniform victim policies,
  ``steal_half``, weighted admission, ``trace``, samplers,
  ``_fast_forward=False``, unsorted hand-built arrivals -- fall back to
  the per-replicate flat kernel (which itself delegates to the
  reference engine where needed), as does any host without a C
  compiler or with ``REPRO_CEXT=0``.
* :mod:`repro.sim.dispatch` decides which runs reach this module: every
  eligible work-stealing run, at any replicate count (a single run is
  ``run_batch([instance])``), and the sweep layer's fused cells.

Telemetry: with a sink attached, :func:`run_batch` emits
``batch.start`` (plan: rep count, kernel path), per-replicate
``batch.flush`` (wall time as each rep's results materialize) and
``batch.done``.  Telemetry never changes results.
"""

from __future__ import annotations

import ctypes
import time
from typing import Any, Dict, List, Optional, Sequence, Union

import numpy as np

from repro.dag.flat import FlatInstance, flatten_jobset, kernel_tables
from repro.dag.job import JobSet
from repro.sim._cext import (
    BLOCK,
    IDLE_AT,
    KSTATE_STATS,
    RC_DONE,
    REFILL_CFUNC,
    Arena,
    KState,
    resolve_batch_kernel,
)
from repro.sim.dispatch import config_reasons
from repro.sim.engine import _check_knobs, _scheduler_label
from repro.sim.flat_engine import _run_flat
from repro.sim.result import ScheduleResult, SimulationStats
from repro.sim.rng import SeedLike, make_rng

__all__ = ["run_batch"]


class _BatchTables:
    """Immutable union tables for one tuple of replicate instances.

    Everything is derived in one vectorized numpy pass over the
    concatenation of the replicates' CSR arrays, on a shared global id
    space (node ids offset by ``node_off[r]``, edge targets rebased, a
    job's roots contiguous in the global ascending root list).  Cached
    on the first instance of the tuple, so a sweep evaluating many grid
    points over the same R replicates builds the arena once.
    """

    __slots__ = (
        "arrivals",
        "node_off",
        "job_off",
        "works",
        "eo",
        "et",
        "chain",
        "job_of",
        "jro",
        "roots",
        "preds_master",
        "unfin_master",
        "total_works",
        "n_jobs",
        "sorted_ok",
        "arr_cache",
    )

    def __init__(self, flats: Sequence[FlatInstance]) -> None:
        reps = len(flats)
        n_nodes = np.array([f.n_nodes for f in flats], dtype=np.int64)
        n_jobs = np.array([f.n_jobs for f in flats], dtype=np.int64)
        n_edges = np.array([f.n_edges for f in flats], dtype=np.int64)
        node_off = np.zeros(reps + 1, dtype=np.int64)
        job_off = np.zeros(reps + 1, dtype=np.int64)
        edge_off = np.zeros(reps + 1, dtype=np.int64)
        np.cumsum(n_nodes, out=node_off[1:])
        np.cumsum(n_jobs, out=job_off[1:])
        np.cumsum(n_edges, out=edge_off[1:])

        if reps == 1:
            # A single instance already is its own arena: the kernel
            # only reads these arrays, so use them without copying.
            (only,) = flats
            works, eo = only.node_works, only.edge_offsets
            et, jno = only.edge_targets, only.job_node_offsets
        else:
            works, eo, et, jno = _concat_csr(
                flats, node_off, job_off, edge_off
            )

        # Derived tables, one vectorized pass over the union.
        indeg, chain, roots, job_of, jro = kernel_tables(eo, et, jno)

        self.arrivals = np.concatenate(
            [np.asarray(f.arrivals, dtype=np.float64) for f in flats]
        )
        self.node_off = node_off
        self.job_off = job_off
        self.works = np.ascontiguousarray(works)
        self.eo = eo
        self.et = et
        self.chain = chain
        self.job_of = job_of
        self.jro = jro
        self.roots = roots
        self.preds_master = indeg
        self.unfin_master = np.diff(jno)
        self.total_works = [int(f.node_works.sum()) for f in flats]
        self.n_jobs = [int(x) for x in n_jobs]
        # The flat kernel's delegation predicate, per replicate: a
        # hand-built FlatInstance with unsorted arrivals only has
        # reference-engine semantics.
        self.sorted_ok = [
            bool(np.all(f.arrivals[1:] >= f.arrivals[:-1])) for f in flats
        ]
        #: speed -> global arrival-tick array (same rounding as the
        #: flat kernel's per-instance arr_ticks).
        self.arr_cache: Dict[float, np.ndarray] = {}

    def arr_ticks(self, speed: float) -> np.ndarray:
        ticks = self.arr_cache.get(speed)
        if ticks is None:
            ticks = np.ceil(self.arrivals * speed - 1e-9).astype(np.int64)
            self.arr_cache[speed] = ticks
        return ticks


def _concat_csr(
    flats: Sequence[FlatInstance],
    node_off: np.ndarray,
    job_off: np.ndarray,
    edge_off: np.ndarray,
) -> tuple:
    """``(works, eo, et, jno)`` of the replicates on one global id space."""
    total_nodes = int(node_off[-1])
    total_jobs = int(job_off[-1])
    total_edges = int(edge_off[-1])
    works = np.concatenate([f.node_works for f in flats])
    eo = np.empty(total_nodes + 1, dtype=np.int64)
    eo[-1] = total_edges
    for r, f in enumerate(flats):
        eo[node_off[r] : node_off[r + 1]] = f.edge_offsets[:-1] + edge_off[r]
    et = np.empty(total_edges, dtype=np.int64)
    for r, f in enumerate(flats):
        et[edge_off[r] : edge_off[r + 1]] = f.edge_targets + node_off[r]
    jno = np.empty(total_jobs + 1, dtype=np.int64)
    jno[-1] = total_nodes
    for r, f in enumerate(flats):
        jno[job_off[r] : job_off[r + 1]] = (
            f.job_node_offsets[:-1] + node_off[r]
        )
    return works, eo, et, jno


def _batch_tables(flats: Sequence[FlatInstance]) -> _BatchTables:
    """Cached :class:`_BatchTables` for this exact replicate tuple.

    Attached to the first instance (like the flat kernel's per-instance
    table cache); the entry holds strong references to every other
    member, so the id-tuple key cannot alias a recycled object.  Nothing
    in the entry refers back to the anchor, so a single instance's
    tables are freed with it, by reference counting alone.
    """
    key = tuple(id(f) for f in flats)
    anchor = flats[0]
    cached = getattr(anchor, "_batch_tables_cache", None)
    if cached is not None and cached[0] == key:
        return cached[2]
    tables = _BatchTables(flats)
    others = tuple(f for f in flats if f is not anchor)
    object.__setattr__(anchor, "_batch_tables_cache", (key, others, tables))
    return tables


def _ptr(arr: np.ndarray, offset: int = 0) -> int:
    """The address of ``arr[offset]`` (8-byte elements only)."""
    return arr.ctypes.data + 8 * int(offset)


def _empty_result(
    flat: FlatInstance,
    label: str,
    m: int,
    speed: float,
    recorded_seed: Any,
) -> ScheduleResult:
    """The n == 0 early return, mirroring the flat kernel exactly."""
    return ScheduleResult(
        scheduler=label,
        m=m,
        speed=speed,
        arrivals=np.asarray(flat.arrivals, dtype=np.float64),
        completions=np.zeros(0, dtype=np.float64),
        weights=np.asarray(flat.weights, dtype=np.float64),
        stats=SimulationStats(
            steal_attempts=0,
            failed_steals=0,
            admissions=0,
            admission_wait_ticks=0,
            ff_skipped_ticks=0,
            max_queue_depth=0,
        ),
        seed=recorded_seed,
    )


def run_batch(
    instances: Sequence[Union[FlatInstance, JobSet]],
    m: int,
    speed: float = 1.0,
    k: int = 0,
    seeds: Optional[Sequence[SeedLike]] = None,
    trace: Optional[Any] = None,
    max_ticks: Optional[int] = None,
    steals_per_tick: int = 1,
    victim_policy: str = "uniform",
    steal_half: bool = False,
    admission: str = "fifo",
    sampler: Optional[Any] = None,
    telemetry: Optional[Any] = None,
    _fast_forward: bool = True,
) -> List[ScheduleResult]:
    """Run steal-k-first work stealing on R replicates in one arena.

    ``instances[r]`` is evaluated with seed ``seeds[r]`` (``seeds`` may
    be omitted for fresh-entropy runs, else must have one entry per
    instance; Generators are honored and advanced exactly as the serial
    flat kernel would advance them).  All other parameters are shared
    across the batch and have the semantics of
    :func:`repro.sim.flat_engine._run_flat`.  Returns one
    :class:`ScheduleResult` per instance, in order, **bit-identical**
    to ``[_run_flat(instances[r], ..., seed=seeds[r]) for r]``.
    """
    _check_knobs(m, speed, k, steals_per_tick, admission)
    reps = len(instances)
    if seeds is None:
        seeds = [None] * reps
    elif len(seeds) != reps:
        raise ValueError(
            f"need one seed per instance: got {len(seeds)} seeds for "
            f"{reps} instances"
        )
    if reps == 0:
        return []
    sigma = int(steals_per_tick)

    flats: List[FlatInstance] = [
        inst if isinstance(inst, FlatInstance) else flatten_jobset(inst)
        for inst in instances
    ]

    kernel = resolve_batch_kernel()
    native = kernel is not None and not config_reasons(
        victim_policy, steal_half, admission, trace, sampler, _fast_forward
    )

    def fallback(r: int) -> ScheduleResult:
        return _run_flat(
            flats[r],
            m,
            speed=speed,
            k=k,
            seed=seeds[r],
            trace=trace,
            max_ticks=max_ticks,
            steals_per_tick=steals_per_tick,
            victim_policy=victim_policy,
            steal_half=steal_half,
            admission=admission,
            sampler=sampler,
            _fast_forward=_fast_forward,
        )

    t_start = time.perf_counter()
    if telemetry is not None:
        telemetry.emit(
            "batch.start",
            n_reps=reps,
            m=m,
            k=k,
            steals_per_tick=sigma,
            kernel="cext" if native else "flat-fallback",
        )

    if not native:
        out: List[ScheduleResult] = []
        for r in range(reps):
            t0 = time.perf_counter()
            out.append(fallback(r))
            if telemetry is not None:
                telemetry.emit(
                    "batch.flush",
                    rep=r,
                    wall_s=round(time.perf_counter() - t0, 6),
                )
        if telemetry is not None:
            telemetry.emit(
                "batch.done",
                n_reps=reps,
                wall_s=round(time.perf_counter() - t_start, 6),
                kernel="flat-fallback",
            )
        return out

    tables = _batch_tables(flats)
    label = _scheduler_label(k, victim_policy, steal_half, admission)
    arr_ticks = tables.arr_ticks(speed)
    node_off = tables.node_off
    job_off = tables.job_off
    total_nodes = int(node_off[-1])
    total_jobs = int(job_off[-1])

    # Mutable run state, allocated fresh per call (the immutable tables
    # above are the cached part).  Worker state is rep-blocked at
    # r * m; node/job state is indexed by global arena ids.
    preds = tables.preds_master.copy()
    unfin = tables.unfin_master.copy()
    completions = np.zeros(total_jobs, dtype=np.float64)
    cur = np.full(reps * m, -1, dtype=np.int64)
    fin = np.full(reps * m, IDLE_AT, dtype=np.int64)
    fails = np.zeros(reps * m, dtype=np.int64)
    idles = np.empty(reps * m, dtype=np.int64)
    dq_head = np.full(reps * m, -1, dtype=np.int64)
    dq_tail = np.full(reps * m, -1, dtype=np.int64)
    dq_next = np.empty(max(1, total_nodes), dtype=np.int64)
    dq_prev = np.empty(max(1, total_nodes), dtype=np.int64)
    rdy = np.empty(max(1, total_nodes), dtype=np.int64)
    raw = np.zeros((reps, BLOCK), dtype=np.int64)
    # The kernel's view of the arena.  Node- and job-indexed state uses
    # global arena ids; before each rep the loop below re-aims the
    # job-indexed tables (jro, arr_ticks) at the replicate's first job
    # and the worker arrays at rep * m.
    arena = Arena(
        m=m, k=int(k), sigma=sigma, exhausted=1, ckpt_at=IDLE_AT,
        fast_forward=1, speed=float(speed),
    )
    for name, arr in (
        ("works", tables.works), ("eo", tables.eo), ("et", tables.et),
        ("chain", tables.chain), ("job_of", tables.job_of),
        ("roots", tables.roots), ("preds", preds), ("unfin", unfin),
        ("completions", completions), ("dq_next", dq_next),
        ("dq_prev", dq_prev), ("rdy", rdy),
    ):
        setattr(arena, name, _ptr(arr))

    results: List[Optional[ScheduleResult]] = [None] * reps
    for r in range(reps):
        t0 = time.perf_counter()
        n_r = tables.n_jobs[r]
        recorded_seed = (
            None if isinstance(seeds[r], np.random.Generator) else seeds[r]
        )
        if n_r == 0:
            results[r] = _empty_result(
                flats[r], label, m, speed, recorded_seed
            )
        elif not tables.sorted_ok[r]:
            # Unsorted hand-built arrivals: only the reference engine
            # defines the semantics; the flat kernel delegates, and so
            # do we -- per replicate, identically.
            results[r] = fallback(r)
        else:
            rng = make_rng(seeds[r])
            row = raw[r]
            if m > 1:
                # Same up-front first block as UniformVictim / the flat
                # kernel; refills happen lazily from C via the callback.
                row[:] = rng.integers(0, m - 1, size=BLOCK)

            def _refill(rep: int, _rng=rng, _row=row) -> None:
                _row[:] = _rng.integers(0, m - 1, size=BLOCK)

            cb = REFILL_CFUNC(_refill)
            if max_ticks is None:
                # Same loose feasibility bound as the serial engines,
                # from this replicate's own totals.
                last_arr = int(arr_ticks[job_off[r + 1] - 1])
                rep_max_ticks = int(
                    tables.total_works[r] + (k + 2) * n_r + last_arr
                    + 64 * m + 64
                ) * 4
            else:
                rep_max_ticks = max_ticks
            for name, arr, off in (
                ("jro", tables.jro, job_off[r]),
                ("arr_ticks", arr_ticks, job_off[r]),
                ("cur", cur, r * m),
                ("fin", fin, r * m),
                ("fails", fails, r * m),
                ("idles", idles, r * m),
                ("dq_head", dq_head, r * m),
                ("dq_tail", dq_tail, r * m),
                ("raw", row, 0),
            ):
                setattr(arena, name, _ptr(arr, off))
            arena.n = arena.wn = n_r
            arena.max_ticks = rep_max_ticks
            # Nothing can happen before the first arrival.
            first = int(arr_ticks[job_off[r]])
            ks = KState(t=first, next_at=first, nf=IDLE_AT)
            if kernel(ctypes.byref(arena), ctypes.byref(ks), cb, r) != RC_DONE:
                raise RuntimeError(
                    f"work-stealing run exceeded max_ticks={rep_max_ticks} "
                    f"({ks.completed}/{n_r} jobs complete) -- instance "
                    f"may be overloaded"
                )
            stats = SimulationStats(
                busy_steps=tables.total_works[r], admissions=n_r,
                elapsed_ticks=ks.t,
                **{name: getattr(ks, name) for name in KSTATE_STATS},
            )
            results[r] = ScheduleResult(
                scheduler=label,
                m=m,
                speed=speed,
                arrivals=np.asarray(flats[r].arrivals, dtype=np.float64),
                completions=completions[job_off[r] : job_off[r + 1]],
                weights=np.asarray(flats[r].weights, dtype=np.float64),
                stats=stats,
                seed=recorded_seed,
            )
        if telemetry is not None:
            telemetry.emit(
                "batch.flush",
                rep=r,
                wall_s=round(time.perf_counter() - t0, 6),
            )
    if telemetry is not None:
        telemetry.emit(
            "batch.done",
            n_reps=reps,
            wall_s=round(time.perf_counter() - t_start, 6),
            kernel="cext",
        )
    return results  # type: ignore[return-value]
