"""Flat-CSR tick kernel in pure Python (ISSUE 6).

Replays the reference tick engine (:func:`repro.sim.engine._run_work_stealing`)
bit-identically -- same completions, same :class:`SimulationStats`
counters, same victim-RNG draw sequence -- while advancing the
simulation over :class:`~repro.dag.flat.FlatInstance` CSR arrays instead
of the ``JobExecution`` object graph.  ``repro.run("flat", ...)`` no
longer reaches it: every materialized work-stealing run goes through
:mod:`repro.sim.dispatch` (the compiled kernel or the reference
engine), and streaming runs drive the compiled kernel directly.  This
kernel remains the per-replicate fallback of direct
:func:`~repro.sim.batch_engine.run_batch` calls on hosts without the
compiled kernel, and a Python oracle for the compiled one.

Where the speed comes from
--------------------------
The reference engine's cost is dominated by per-tick per-worker
bookkeeping and per-attempt victim draws.  This kernel removes both:

* **Completion-driven phase A.**  Instead of decrementing a remaining
  counter for every busy worker every tick, each worker stores the
  absolute tick at whose end its current node finishes; phase A runs
  only on ticks where ``min(finish) == t``.  The all-busy and
  nothing-stealable fast-forwards become pure time jumps (no per-worker
  array sweeps), while still stopping at exactly the same per-node
  completion ticks as the reference, so ``ff_skipped_ticks`` matches.
* **Chain fast path.**  ``chain_next[v]`` is precomputed (vectorized over
  the CSR arrays) as the sole successor of ``v`` when ``outdeg(v) == 1``
  and that successor has in-degree 1.  Completing such a node continues
  the chain in O(1): no edge walk, no predecessor decrement (the
  finished node was the only predecessor), no deque interaction.  Every
  chain completion still occupies its own tick -- only the cascade work
  is shortcut, never the time accounting.
* **Batched steal resolution.**  The reference draws one victim per
  attempt from :class:`~repro.sim.policies.UniformVictim`'s buffered
  4096-draw blocks.  This kernel consumes the *same* blocks (same RNG,
  same refill cadence, hence the same stream) but resolves a burst of
  failed attempts at once: the positions of each candidate raw value in
  the current block are extracted lazily (one vectorized
  ``flatnonzero`` per value per block) and walked with monotone
  pointers, so a run of failed draws costs amortized O(1) per candidate
  victim instead of one Python iteration per draw.  Short bursts and
  draws against mostly-non-empty deques use a direct scan instead; all
  paths consume the identical draw count and pick the identical victim.
* **Analytic invariants.**  ``busy_steps == total work`` and
  ``admissions == n`` hold for every complete run (the test suite
  asserts the former for every engine), so neither is accumulated in
  the hot loop.

Per-worker state lives in plain Python lists, not numpy arrays: the
repository's measured doctrine (see :mod:`repro.sim.worker`) is that
numpy *scalar* indexing costs ~4x a list index at realistic ``m``.
numpy appears at the edges -- building the derived CSR tables
(in-degrees via ``bincount`` over ``edge_targets``, roots, chain links,
all vectorized) and drawing victim blocks -- where whole-array work wins.

Optional numba path
-------------------
When numba is importable the block scanner (the innermost "first
successful draw" search) is compiled with ``@njit``; the fallback is the
pure-Python scanner and results are identical either way.  Environment
override ``REPRO_NUMBA``: ``0`` disables numba even if present, ``1``
requests it and emits a one-time :class:`RuntimeWarning` if it cannot be
imported, unset tries silently.

Scope and delegation
--------------------
The kernel natively supports the paper's analyzed configuration space:
uniform victim selection, FIFO admission, single-entry steals, any
``k`` / ``steals_per_tick`` / ``speed`` / ``m`` / seed, samplers, and the
``_fast_forward=False`` brute-force mode.  The ablation knobs outside
that space (``victim_policy != "uniform"``, ``steal_half``, weighted
admission, trace recording) delegate to the reference engine, which is
bit-identical by definition; so is a hand-built ``FlatInstance`` whose
arrivals are not sorted (a :class:`~repro.dag.job.JobSet` re-sorts, so
the flat job order would not match the reference's job ids).
"""

from __future__ import annotations

import gc
import os
import warnings
from collections import deque
from typing import Any, Dict, List, Optional, Union

import numpy as np

from repro.dag.flat import (
    FlatInstance,
    flatten_jobset,
    kernel_tables,
    to_jobset,
)
from repro.dag.job import JobSet
from repro.sim._cext import BLOCK as _BLOCK
from repro.sim._cext import IDLE_AT as _IDLE_AT
from repro.sim.dispatch import config_reasons
from repro.sim.engine import (
    _check_knobs,
    _run_work_stealing,
    _scheduler_label,
)
from repro.sim.result import ScheduleResult, SimulationStats
from repro.sim.rng import SeedLike, make_rng
from repro.sim.sampling import SystemSampler

#: Live-attempt bursts shorter than this scan the draw list directly;
#: longer bursts amortize the per-value position index (measured
#: crossover on the 500-job reference workload).
_SHORT_BURST = 8

# ----------------------------------------------------------------------
# Optional numba block scanner
# ----------------------------------------------------------------------

_numba_scan: Any = None
_numba_resolved = False
_numba_warned = False


def _resolve_numba_scan() -> Any:
    """The compiled first-hit scanner, or ``None`` for the Python path.

    Resolution is cached per process.  ``REPRO_NUMBA=0`` disables,
    ``REPRO_NUMBA=1`` requests numba and warns once (RuntimeWarning) if
    it is not importable, unset auto-detects silently.
    """
    global _numba_scan, _numba_resolved, _numba_warned
    if _numba_resolved:
        return _numba_scan
    pref = os.environ.get("REPRO_NUMBA", "").strip()
    if pref == "0":
        _numba_resolved = True
        return None
    try:
        from numba import njit  # type: ignore[import-not-found]
    except ImportError:
        if pref == "1" and not _numba_warned:
            _numba_warned = True
            warnings.warn(
                "REPRO_NUMBA=1 requested the numba flat-kernel scanner, "
                "but numba is not importable; falling back to the pure "
                "numpy/list path (results are identical, only slower)",
                RuntimeWarning,
                stacklevel=3,
            )
        _numba_resolved = True
        return None

    @njit(cache=False, nogil=True)
    def _scan(raw, nonempty, start, stop, thief):  # pragma: no cover - needs numba
        for j in range(start, stop):
            v = raw[j]
            if v >= thief:
                v += 1
            if nonempty[v]:
                return j
        return -1

    _numba_scan = _scan
    _numba_resolved = True
    return _numba_scan


# ----------------------------------------------------------------------
# Slow-path visibility (ISSUE 10 satellite)
# ----------------------------------------------------------------------

_SLOW_PATH_WARNED = False


def _warn_slow_path(reasons: tuple) -> None:
    """One-time RuntimeWarning when a config falls off the flat kernel.

    The reference engine is ~8x slower than the flat kernel; before
    this warning the fallback was silent and a sweep that looked
    mysteriously slow gave no hint why.  Warned once per process (like
    the REPRO_NUMBA resolution warning); the paired
    ``dispatch.slow_path`` telemetry event (emitted by
    :mod:`repro.sim.dispatch`) records reference-routed runs for
    machine consumption.
    """
    global _SLOW_PATH_WARNED
    if _SLOW_PATH_WARNED or not reasons:
        return
    _SLOW_PATH_WARNED = True
    warnings.warn(
        f"this configuration ({', '.join(reasons)}) is outside the flat "
        f"kernel's native scope and falls back to the ~8x-slower "
        f"reference engine; results are identical, only slower "
        f"(this warning is shown once per process)",
        RuntimeWarning,
        stacklevel=4,
    )


# ----------------------------------------------------------------------
# Derived CSR tables (cached per FlatInstance)
# ----------------------------------------------------------------------


class _KernelTables:
    """Immutable per-instance tables the kernel derives from the CSR arrays.

    Everything here is computed once per :class:`FlatInstance` with
    vectorized numpy (in-degrees via ``bincount`` over ``edge_targets``,
    roots, chain links) and then converted to plain lists for the scalar
    hot loop; repeated runs on the same instance -- a sweep repetition,
    a benchmark round -- reuse the cached tables and only copy the two
    mutable vectors (predecessor counts, per-job unfinished counts).
    """

    __slots__ = (
        "works",
        "eo",
        "et",
        "chain",
        "job_of",
        "jro",
        "roots",
        "preds_master",
        "unfin_master",
        "total_work",
        "arr_cache",
    )

    def __init__(self, flat: FlatInstance) -> None:
        indeg, chain, roots, job_of, jro = kernel_tables(
            flat.edge_offsets, flat.edge_targets, flat.job_node_offsets
        )
        self.works: List[int] = flat.node_works.tolist()
        self.eo: List[int] = flat.edge_offsets.tolist()
        self.et: List[int] = flat.edge_targets.tolist()
        self.chain: List[int] = chain.tolist()
        self.job_of: List[int] = job_of.tolist()
        self.jro: List[int] = jro.tolist()
        self.roots: List[int] = roots.tolist()
        self.preds_master: List[int] = indeg.tolist()
        self.unfin_master: List[int] = np.diff(flat.job_node_offsets).tolist()
        self.total_work = int(flat.node_works.sum())
        #: speed -> arrival-tick list (the reference's ``arr_ticks``).
        self.arr_cache: Dict[float, List[int]] = {}

    def arr_ticks(self, arrivals: np.ndarray, speed: float) -> List[int]:
        ticks = self.arr_cache.get(speed)
        if ticks is None:
            ticks = [
                int(v)
                for v in np.ceil(arrivals * speed - 1e-9).astype(np.int64)
            ]
            self.arr_cache[speed] = ticks
        return ticks


def _kernel_tables(flat: FlatInstance) -> _KernelTables:
    """Cached :class:`_KernelTables` for ``flat`` (attached to the instance)."""
    tables = getattr(flat, "_kernel_tables_cache", None)
    if tables is None:
        # The build materializes tens of millions of acyclic objects
        # (ints inside lists); with the collector enabled, the gen-2
        # passes it triggers walk the growing tables repeatedly, which
        # can triple the build time at paper scale (100k jobs).
        was_enabled = gc.isenabled()
        if was_enabled:
            gc.disable()
        try:
            tables = _KernelTables(flat)
        finally:
            if was_enabled:
                gc.enable()
        # FlatInstance is a frozen dataclass; the cache is derived state,
        # not content, so attach it through object.__setattr__.
        object.__setattr__(flat, "_kernel_tables_cache", tables)
    return tables


# ----------------------------------------------------------------------
# The kernel
# ----------------------------------------------------------------------


def _run_flat(
    instance: Union[FlatInstance, JobSet],
    m: int,
    speed: float = 1.0,
    k: int = 0,
    seed: SeedLike = None,
    trace: Optional[Any] = None,
    max_ticks: Optional[int] = None,
    steals_per_tick: int = 1,
    victim_policy: str = "uniform",
    steal_half: bool = False,
    admission: str = "fifo",
    sampler: Optional[SystemSampler] = None,
    _fast_forward: bool = True,
) -> ScheduleResult:
    """Simulate steal-k-first work stealing on flat CSR state.

    Accepts either a :class:`FlatInstance` (the shared-memory / sweep
    path -- no object graph is ever built) or a :class:`JobSet` (which
    is flattened once and cached on the set).  Parameters, semantics and
    the returned :class:`ScheduleResult` are exactly those of
    :func:`repro.sim.engine._run_work_stealing`; the equivalence suite
    asserts bit-identity.  Knobs outside the kernel's native scope
    (non-uniform victim policies, ``steal_half``, weighted admission,
    ``trace``) delegate to the reference engine.
    """
    _check_knobs(m, speed, k, steals_per_tick, admission)
    sigma = int(steals_per_tick)

    if isinstance(instance, FlatInstance):
        flat: Optional[FlatInstance] = instance
        jobset: Optional[JobSet] = None
        n = instance.n_jobs
        arrivals = np.asarray(instance.arrivals, dtype=np.float64)
        weights = np.asarray(instance.weights, dtype=np.float64)
    else:
        flat = None
        jobset = instance
        n = len(jobset)
        arrivals = np.asarray(jobset.arrivals, dtype=np.float64)
        weights = np.asarray(jobset.weights, dtype=np.float64)

    label = _scheduler_label(k, victim_policy, steal_half, admission)
    recorded_seed = None if isinstance(seed, np.random.Generator) else seed

    if n == 0:
        # Mirror of the reference early return: zero ticks, real zeros.
        return ScheduleResult(
            scheduler=label,
            m=m,
            speed=speed,
            arrivals=arrivals,
            completions=np.zeros(0, dtype=np.float64),
            weights=weights,
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

    # A JobSet's arrivals are sorted by construction; a hand-built
    # FlatInstance's may not be, in which case to_jobset() would re-sort
    # and re-id, so only the reference engine defines the semantics.
    arrivals_sorted = jobset is not None or bool(
        np.all(arrivals[1:] >= arrivals[:-1])
    )
    if (
        victim_policy != "uniform"
        or steal_half
        or admission != "fifo"
        or trace is not None
        or not arrivals_sorted
    ):
        _warn_slow_path(
            config_reasons(victim_policy, steal_half, admission, trace)
        )
        return _run_work_stealing(
            jobset if jobset is not None else to_jobset(flat),
            m,
            speed=speed,
            k=k,
            seed=seed,
            trace=trace,
            max_ticks=max_ticks,
            steals_per_tick=steals_per_tick,
            victim_policy=victim_policy,
            steal_half=steal_half,
            admission=admission,
            sampler=sampler,
            _fast_forward=_fast_forward,
        )

    if flat is None:
        flat = flatten_jobset(jobset)
    tables = _kernel_tables(flat)

    rng = make_rng(seed)
    completions = np.zeros(n, dtype=np.float64)
    arr_ticks = tables.arr_ticks(arrivals, speed)

    if max_ticks is None:
        # Same loose feasibility bound as the reference engine.
        max_ticks = int(
            tables.total_work + (k + 2) * n + arr_ticks[-1] + 64 * m + 64
        ) * 4

    # -- immutable tables bound to locals (hot-loop lookups) ----------------
    works = tables.works
    eo = tables.eo
    et = tables.et
    chain = tables.chain
    job_of = tables.job_of
    jro = tables.jro
    roots_l = tables.roots

    # -- mutable run state --------------------------------------------------
    preds = tables.preds_master.copy()
    unfin = tables.unfin_master.copy()
    cur = [-1] * m  # current global node id, -1 when idle
    fin = [_IDLE_AT] * m  # absolute tick at whose END cur[i] completes
    fails = [0] * m  # consecutive failed steals (admission unlock)
    deques: List[deque] = [deque() for _ in range(m)]
    queue: deque = deque()  # global FIFO of waiting job ids
    ne: set = set()  # workers with a non-empty deque (== "stealable")

    scan_jit = _resolve_numba_scan() if m > 1 else None
    flags = np.zeros(m, dtype=np.bool_) if scan_jit is not None else None

    # Victim-draw block, consumed exactly like UniformVictim: the first
    # block is drawn up front (the policy draws at construction), refills
    # happen lazily when a live attempt needs a draw past the block end.
    if m > 1:
        raw_np = rng.integers(0, m - 1, size=_BLOCK)
        raw = raw_np.tolist()
    else:
        raw_np = None
        raw = None
    p = 0  # next unconsumed draw position in the current block
    # Lazy per-block position index for long bursts: pos_of[c] is
    # [ascending positions of raw value c (sentinel _BLOCK), cursor].
    # Cursors only ever advance (p is monotone within a block), so a
    # failed-draw burst costs amortized O(1) per candidate victim.
    pos_of: Dict[int, list] = {}

    next_arr = 0
    next_at = arr_ticks[0]
    completed = 0
    t = next_at  # nothing can happen before the first arrival
    n_busy = 0
    nf = _IDLE_AT  # min over busy workers of fin[i] ("next finish")

    st_att = 0
    st_fail = 0
    st_idle = 0
    st_admwait = 0
    st_ff = 0
    st_maxq = 0

    ff = _fast_forward
    boundary = False  # force a sampler snapshot at the next loop top

    # Workers idle at the start of a tick (the reference's
    # idle_at_start), rebuilt lazily: only ticks following an
    # acquisition or a go-idle transition re-scan the workers.
    idles: List[int] = []
    idles_dirty = True

    def _complete(
        i: int,
        end_tick: int,
        # Free variables rebound as defaults: LOAD_FAST instead of
        # LOAD_DEREF on every access -- measurable at ~1e4 calls/run.
        works=works,
        chain=chain,
        job_of=job_of,
        eo=eo,
        et=et,
        preds=preds,
        unfin=unfin,
        cur=cur,
        fin=fin,
        deques=deques,
        ne=ne,
        completions=completions,
        speed=speed,
    ) -> None:
        """Finish worker ``i``'s current node at the end of ``end_tick``.

        Exact flat transcription of the reference cascade: decrement the
        job's unfinished count, enable successors (first enabled child
        continues on this worker, the rest push onto its deque), else pop
        the worker's own deque LIFO, else go idle.  ``chain_next`` skips
        the successor walk when the outcome is forced.  Phase A inlines a
        copy of this body (minus the ``nf`` upkeep, which phase A
        recomputes wholesale); keep the two in sync.
        """
        nonlocal completed, n_busy, nf, idles_dirty
        g = cur[i]
        j = job_of[g]
        u = unfin[j] - 1
        unfin[j] = u
        cn = chain[g]
        if cn >= 0:
            # Sole successor with in-degree 1: it is enabled by exactly
            # this completion, so skip the decrement and continue the
            # chain on this worker.
            cur[i] = cn
            f = end_tick + works[cn]
            fin[i] = f
            if f < nf:
                nf = f
            return
        lo = eo[g]
        hi = eo[g + 1]
        if u == 0:
            completions[j] = (end_tick + 1) / speed
            completed += 1
        if lo != hi:
            if hi - lo == 1:
                # Single successor (but a join node): decrement without
                # materializing an edge slice.
                s2 = et[lo]
                pc = preds[s2] - 1
                preds[s2] = pc
                if pc == 0:
                    cur[i] = s2
                    f = end_tick + works[s2]
                    fin[i] = f
                    if f < nf:
                        nf = f
                    return
            else:
                first = -1
                extras = None
                for s2 in et[lo:hi]:
                    pc = preds[s2] - 1
                    preds[s2] = pc
                    if pc == 0:
                        if first < 0:
                            first = s2
                        elif extras is None:
                            extras = [s2]
                        else:
                            extras.append(s2)
                if first >= 0:
                    cur[i] = first
                    f = end_tick + works[first]
                    fin[i] = f
                    if f < nf:
                        nf = f
                    if extras is not None:
                        dq = deques[i]
                        if not dq:
                            ne.add(i)
                            if flags is not None:
                                flags[i] = True
                        nt = end_tick + 1
                        for s2 in extras:
                            dq.append((s2, nt))
                    return
        dq = deques[i]
        if dq:
            g2 = dq.pop()[0]
            if not dq:
                ne.discard(i)
                if flags is not None:
                    flags[i] = False
            cur[i] = g2
            f = end_tick + works[g2]
            fin[i] = f
            if f < nf:
                nf = f
        else:
            cur[i] = -1
            fin[i] = _IDLE_AT
            n_busy -= 1
            idles_dirty = True

    while completed < n:
        # ---- release arrivals due at or before the current tick ---------
        if next_at <= t:
            while next_arr < n and arr_ticks[next_arr] <= t:
                queue.append(next_arr)
                next_arr += 1
            next_at = arr_ticks[next_arr] if next_arr < n else max_ticks + 1
            ql = len(queue)
            if ql > st_maxq:
                st_maxq = ql

        if t >= max_ticks:
            raise RuntimeError(
                f"work-stealing run exceeded max_ticks={max_ticks} "
                f"({completed}/{n} jobs complete) -- instance may be overloaded"
            )

        if sampler is not None:
            if boundary:
                sampler.record_boundary(t, n_busy, len(queue), len(ne), completed)
                boundary = False
            else:
                sampler.maybe_record(t, n_busy, len(queue), len(ne), completed)

        if ff:
            # ---- fast-forward: whole system empty -----------------------
            if n_busy == 0 and not queue:
                gap = next_at - t
                for i in range(m):
                    f = fails[i] + gap * sigma
                    fails[i] = f if f < k else k
                st_idle += gap * m
                st_ff += gap
                if sampler is not None:
                    sampler.record_boundary(t, 0, 0, len(ne), completed)
                    boundary = True
                t += gap
                continue

            # ---- fast-forward: every worker busy ------------------------
            if n_busy == m:
                # min(remaining) - 1 == nf - t: jump straight to the
                # completion tick and let the general path run it.
                blind = nf - t
                if blind > 0:
                    st_ff += blind
                    if sampler is not None:
                        sampler.record_boundary(
                            t, n_busy, len(queue), len(ne), completed
                        )
                        boundary = True
                    t += blind
                    continue
                # blind == 0: the completion tick; fall through.

            # ---- fast-forward: nothing stealable, nothing admissible ----
            elif not ne and n_busy > 0 and not queue:
                delta = nf - t + 1  # == min(remaining) over busy workers
                if next_arr < n and next_at - t < delta:
                    delta = next_at - t
                blind = delta - 1
                if blind >= 1:
                    n_idle = m - n_busy
                    for i in range(m):
                        if cur[i] < 0:
                            f = fails[i] + blind * sigma
                            fails[i] = f if f < k else k
                    st_att += blind * n_idle * sigma
                    st_fail += blind * n_idle * sigma
                    st_ff += blind
                    if sampler is not None:
                        sampler.record_boundary(t, n_busy, 0, 0, completed)
                        boundary = True
                    t += blind
                    continue
                # delta == 1: fall through to the general tick.

        # ---- general tick -------------------------------------------------
        # Workers idle at the start of the tick act in phase B; phase A
        # only makes workers idle, never busy, so the snapshot before
        # phase A equals the reference's idle_at_start list.
        if idles_dirty:
            idles = []
            for i in range(m):
                if cur[i] < 0:
                    idles.append(i)
            idles_dirty = False

        # Phase A: runs only on completion ticks (fin[i] == t for some
        # busy worker, i.e. nf == t); on every other tick the reference's
        # per-worker decrement sweep has no observable effect.  The
        # cascade is an inlined copy of _complete() minus the nf upkeep
        # (nf is recomputed from scratch below); keep the two in sync.
        if nf == t:
            nt = t + 1
            nfi = _IDLE_AT
            for i in range(m):
                f = fin[i]
                if f == t:
                    g = cur[i]
                    j = job_of[g]
                    u = unfin[j] - 1
                    unfin[j] = u
                    cn = chain[g]
                    if cn >= 0:
                        cur[i] = cn
                        f = t + works[cn]
                        fin[i] = f
                        if f < nfi:
                            nfi = f
                        continue
                    lo = eo[g]
                    hi = eo[g + 1]
                    if u == 0:
                        completions[j] = nt / speed
                        completed += 1
                    if lo != hi:
                        if hi - lo == 1:
                            s2 = et[lo]
                            pc = preds[s2] - 1
                            preds[s2] = pc
                            if pc == 0:
                                cur[i] = s2
                                f = t + works[s2]
                                fin[i] = f
                                if f < nfi:
                                    nfi = f
                                continue
                        else:
                            first = -1
                            extras = None
                            for s2 in et[lo:hi]:
                                pc = preds[s2] - 1
                                preds[s2] = pc
                                if pc == 0:
                                    if first < 0:
                                        first = s2
                                    elif extras is None:
                                        extras = [s2]
                                    else:
                                        extras.append(s2)
                            if first >= 0:
                                cur[i] = first
                                f = t + works[first]
                                fin[i] = f
                                if f < nfi:
                                    nfi = f
                                if extras is not None:
                                    dq = deques[i]
                                    if not dq:
                                        ne.add(i)
                                        if flags is not None:
                                            flags[i] = True
                                    for s2 in extras:
                                        dq.append((s2, nt))
                                continue
                    dq = deques[i]
                    if dq:
                        g2 = dq.pop()[0]
                        if not dq:
                            ne.discard(i)
                            if flags is not None:
                                flags[i] = False
                        cur[i] = g2
                        f = t + works[g2]
                        fin[i] = f
                    else:
                        cur[i] = -1
                        f = _IDLE_AT
                        fin[i] = f
                        n_busy -= 1
                        idles_dirty = True
                if f < nfi:
                    nfi = f
            nf = nfi

        # Phase B: idle workers acquire work, exactly as the reference --
        # same admission/burn/live-attempt branch order, same RNG draw
        # count -- but failed live attempts are resolved in bulk against
        # the draw block instead of one Python iteration per draw.
        for i in idles:
            budget = sigma
            while budget > 0:
                fi = fails[i]
                if fi >= k and queue:
                    # Admit the head-of-line job: first root runs here,
                    # remaining roots (ready since arrival) are pushed.
                    jb = queue.popleft()
                    ro = jro[jb]
                    rhi = jro[jb + 1]
                    r0 = roots_l[ro]
                    cur[i] = r0
                    fails[i] = 0
                    n_busy += 1
                    idles_dirty = True
                    st_admwait += t - arr_ticks[jb]
                    if rhi - ro > 1:
                        dq = deques[i]
                        if not dq:
                            ne.add(i)
                            if flags is not None:
                                flags[i] = True
                        for x in range(ro + 1, rhi):
                            dq.append((roots_l[x], t))
                    if sigma > 1:
                        # Sub-tick admission: execute one unit this tick.
                        if works[r0] == 1:
                            _complete(i, t)
                        else:
                            f = t + works[r0] - 1
                            fin[i] = f
                            if f < nf:
                                nf = f
                    else:
                        f = t + works[r0]
                        fin[i] = f
                        if f < nf:
                            nf = f
                    break  # admission consumes the rest of the tick
                if not ne:
                    # Nothing stealable: every remaining attempt fails.
                    # Burn just enough to unlock admission when the queue
                    # is non-empty, else the whole budget -- no draws.
                    if queue and k - fi <= budget:
                        burned = k - fi
                    else:
                        burned = budget
                    f2 = fi + burned
                    fails[i] = f2 if f2 < k else k
                    st_att += burned
                    st_fail += burned
                    budget -= burned
                    if budget > 0:
                        continue  # unlocked admission; loop admits next
                    break
                # Live steal attempts: find the first draw in the block
                # that maps to a non-empty deque, within the allowance
                # (remaining budget, capped at the draws left before
                # admission unlocks when the queue is non-empty).
                allowed = budget
                if queue:
                    d = k - fi
                    if d < allowed:
                        allowed = d
                got = -1
                while True:
                    if p == _BLOCK:
                        # Same lazy refill cadence as UniformVictim.
                        raw_np = rng.integers(0, m - 1, size=_BLOCK)
                        raw = raw_np.tolist()
                        p = 0
                        pos_of = {}
                    stop = p + allowed
                    if stop > _BLOCK:
                        stop = _BLOCK
                    if scan_jit is not None:
                        got = int(scan_jit(raw_np, flags, p, stop, i))
                    elif allowed < _SHORT_BURST or 2 * len(ne) >= m - 1:
                        # Short burst, or most deques non-empty (a hit
                        # comes fast): scan the draws directly.
                        got = -1
                        for jdx in range(p, stop):
                            v = raw[jdx]
                            if v >= i:
                                v += 1
                            if deques[v]:
                                got = jdx
                                break
                    else:
                        # Long burst, few candidates: jump through each
                        # candidate's position list instead of iterating
                        # every failed draw.
                        best = stop
                        for s in ne:
                            if s == i:
                                continue
                            c = s if s < i else s - 1
                            entry = pos_of.get(c)
                            if entry is None:
                                lst = np.flatnonzero(raw_np == c).tolist()
                                lst.append(_BLOCK)
                                entry = [lst, 0]
                                pos_of[c] = entry
                            lst = entry[0]
                            q = entry[1]
                            pos = lst[q]
                            while pos < p:
                                q += 1
                                pos = lst[q]
                            entry[1] = q
                            if pos < best:
                                best = pos
                        got = best if best < stop else -1
                    if got >= 0:
                        n_failed = got - p
                        fails[i] += n_failed
                        st_att += n_failed + 1
                        st_fail += n_failed
                        budget -= n_failed + 1
                        p = got + 1
                        break
                    n_failed = stop - p
                    fails[i] += n_failed
                    st_att += n_failed
                    st_fail += n_failed
                    budget -= n_failed
                    allowed -= n_failed
                    p = stop
                    if allowed == 0:
                        break
                if got < 0:
                    continue  # budget spent, or admission just unlocked
                v = raw[got]
                victim = v + 1 if v >= i else v
                vdq = deques[victim]
                g2, rdy = vdq.popleft()
                if not vdq:
                    ne.discard(victim)
                    if flags is not None:
                        flags[victim] = False
                cur[i] = g2
                fails[i] = 0
                n_busy += 1
                idles_dirty = True
                # Same-tick execution only if the stolen node was ready
                # at the start of this tick (cf. the reference engine).
                if sigma > 1 and rdy <= t:
                    if works[g2] == 1:
                        _complete(i, t)
                    else:
                        f = t + works[g2] - 1
                        fin[i] = f
                        if f < nf:
                            nf = f
                else:
                    f = t + works[g2]
                    fin[i] = f
                    if f < nf:
                        nf = f
                break  # the steal consumes the rest of the tick

        t += 1

    stats = SimulationStats()
    # busy_steps == total work and admissions == n are invariants of any
    # complete run (asserted across the test suite), so the kernel does
    # not accumulate them tick by tick.
    stats.busy_steps = tables.total_work
    stats.steal_attempts = st_att
    stats.failed_steals = st_fail
    stats.admissions = n
    stats.idle_steps = st_idle
    stats.elapsed_ticks = t
    stats.admission_wait_ticks = st_admwait
    stats.ff_skipped_ticks = st_ff
    stats.max_queue_depth = st_maxq
    return ScheduleResult(
        scheduler=label,
        m=m,
        speed=speed,
        arrivals=arrivals,
        completions=completions,
        weights=weights,
        stats=stats,
        seed=recorded_seed,
    )
