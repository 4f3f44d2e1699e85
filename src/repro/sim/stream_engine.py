"""Streaming runs: bounded-memory simulation over lazy arrival streams.

:func:`_run_stream` is ``repro.run("flat", stream=...)``: the paper's
*online* setting, where jobs arrive over time and nobody holds the
future in memory.  CSR segments of a :class:`~repro.workloads.stream.
StreamSpec` are generated as simulated time reaches them, completed jobs
are retired and compacted away, and metrics accumulate online
(:mod:`repro.metrics.online`), so peak memory is O(live jobs + one
chunk), not O(total jobs).

The tick loop is the compiled kernel's (``repro_kernel_run`` in
``_batch_kernel.c``, the loop every materialized run executes), driven
over a sliding *window*: int64 tables with window-local ids, plus a
:class:`~repro.sim._cext.KState` the kernel loads on entry and stores on
every return.  This module answers the return causes: ``need_segment``
(compact the retired prefix once ``_compact_min`` jobs retired, append
the next segment, raise the ``max_ticks`` bound), ``checkpoint``
(compact, save), ``log_full`` (feed the completion-ordered flow log to
the P^2 sketches and the ``(tick, n_busy)`` change log to the
utilization sampler -- a step function, so replaying its changes is
exact), ``done`` and ``max_ticks``.  Pulls, compactions and checkpoints
fall on exactly the ticks of the earlier pure-Python stream loop, whose
every output ``tests/sim/test_stream_golden.py`` pins.  Compaction only
rewrites window-local indices, so it is unobservable in the results.

The kernel keeps the exact max flow (with argmax job and completion),
flow sum and last completion over the *identical* per-job flow floats
the materialized engines compute: ``max_flow``, ``argmax_job``,
``makespan`` and every :class:`~repro.sim.result.SimulationStats`
counter are bit-identical to ``_run_flat(stream.materialize(seed), m,
seed=seed, ...)`` (``tests/sim/test_stream_engine.py``).  There is no
Python fallback: without the kernel (``REPRO_CEXT=0``, no C compiler) a
stream run raises :class:`~repro.errors.KernelUnavailableError`, and
``stream.materialize(seed)`` runs anywhere, identically.

One integer seed drives everything: the victim RNG is ``make_rng(seed)``
and chunk generation derives child seeds from it; ``seed=None`` draws
one entropy integer up front and records it on the result.

Checkpoint/restore: with ``checkpoint_dir`` set, every
``checkpoint_every`` completed jobs the complete mutable state (window
tables, worker arrays and deque links, victim RNG state and draw block,
kernel state, stream cursor, online accumulators) is saved durably via
:mod:`repro.sim.checkpoint`, with a :mod:`repro.obs` manifest alongside.
Saves happen right after an arrival release, where the loop-top state
is self-consistent (``next_at > t``), so a killed-and-resumed run
reproduces the uninterrupted run's floats identically.  The
``checkpoint`` fault stage (:mod:`repro.testing.faults`) fires right
*after* each durable save.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional, Sequence, Union

import numpy as np

from repro.dag.flat import FlatInstance, kernel_tables
from repro.errors import (
    CacheCorruptError,
    KernelUnavailableError,
    SweepConfigError,
)
from repro.metrics.online import OnlineFlowStats, WindowedUtilization
from repro.obs.manifest import build_manifest, write_manifest
from repro.sim import _cext
from repro.sim.checkpoint import (
    latest_checkpoint,
    load_checkpoint,
    save_checkpoint,
)
from repro.sim.engine import _check_knobs, _scheduler_label
from repro.sim.result import SimulationStats
from repro.sim.rng import make_rng
from repro.testing.faults import maybe_inject
from repro.workloads.stream import StreamCursor, StreamSpec

PathLike = Union[str, Path]

#: Flows the kernel may log between two drains (plus m: one iteration's
#: worst case), and ``(tick, n_busy)`` pairs likewise.
_LOG_CAP = 1 << 16


@dataclass
class StreamResult:
    """Outcome of one streaming run (per-job arrays are gone by design).

    The online counterpart of :class:`~repro.sim.result.ScheduleResult`:
    aggregate objectives plus the engine's usual
    :class:`~repro.sim.result.SimulationStats`, extended with
    streaming-specific accounting (peak live jobs, segments,
    compactions, checkpoints).
    """

    scheduler: str
    m: int
    speed: float
    seed: int  #: effective seed (drawn entropy when the caller passed None)
    n_jobs: int
    max_flow: float  #: exact; bit-identical to the materialized run
    argmax_job: Optional[int]  #: global id of the job achieving max_flow
    mean_flow: float  #: online running mean (not bit-matched to numpy)
    quantiles: Dict[float, float]  #: P^2 sketch estimates per quantile
    makespan: float  #: last completion time
    stats: SimulationStats
    peak_live_jobs: int  #: max generated-but-incomplete jobs at any pull
    segments_generated: int
    compactions: int
    checkpoints_written: int = 0
    resumed_from: Optional[int] = None  #: completed-job count at restore
    utilization: Optional[WindowedUtilization] = None

    def summary(self) -> Dict[str, Any]:
        """Flat dict for reports and telemetry."""
        out: Dict[str, Any] = {
            name: getattr(self, name)
            for name in (
                "scheduler", "m", "speed", "seed", "n_jobs", "max_flow",
                "argmax_job", "mean_flow", "makespan", "peak_live_jobs",
                "segments_generated", "compactions", "checkpoints_written",
                "resumed_from",
            )
        }
        for q, value in sorted(self.quantiles.items()):
            out[f"p{round(q * 100):g}_flow"] = value
        out.update(self.stats.as_dict())
        if self.utilization is not None:
            out["utilization"] = self.utilization.overall()
        return out


def _config_token(
    stream: StreamSpec,
    m: int,
    speed: float,
    k: int,
    sigma: int,
    quantiles: Sequence[float],
    utilization_window: Optional[int],
) -> str:
    """Everything a checkpoint must agree on to be resumable."""
    return (
        f"stream-run({stream.spec_token()},m={m},speed={speed!r},k={k},"
        f"sigma={sigma},quantiles={tuple(sorted(float(q) for q in quantiles))},"
        f"util={utilization_window!r})"
    )


def _rebase(ids: np.ndarray, cut: int) -> np.ndarray:
    """Shift node ids down by ``cut``; -1 (and dead links) become -1."""
    return np.where(ids >= cut, ids - cut, -1)


class _Window:
    """The kernel's arena for a sliding window of jobs.

    Tables hold window-local ids; worker state and deque links live here
    too, so a compaction rebases every id in one place.  Appends and
    compactions replace arrays; :meth:`arena` re-aims the kernel.
    """

    #: Window tables, in checkpoint order.
    TABLES = (
        "works", "eo", "et", "chain", "job_of", "preds", "jno", "jro",
        "roots", "unfin", "arr_ticks", "arrivals", "dq_next", "dq_prev",
        "rdy",
    )
    #: Per-worker arrays (and the victim-draw block).
    WORKERS = ("cur", "fin", "fails", "dq_head", "dq_tail", "raw")

    def __init__(self, m: int, flow_log: bool, busy_log: bool) -> None:
        for name in self.TABLES:
            size = 1 if name in ("eo", "jno", "jro") else 0
            dtype = np.float64 if name == "arrivals" else np.int64
            setattr(self, name, np.zeros(size, dtype=dtype))
        for name, fill in (("cur", -1), ("fin", _cext.IDLE_AT), ("fails", 0),
                           ("dq_head", -1), ("dq_tail", -1), ("idles", 0)):
            setattr(self, name, np.full(m, fill, dtype=np.int64))
        self.raw = np.zeros(_cext.BLOCK, dtype=np.int64)
        self.flow_log = np.zeros(_LOG_CAP + m) if flow_log else None
        self.busy_log = (
            np.zeros(2 * _LOG_CAP, dtype=np.int64) if busy_log else None
        )

    @property
    def n_jobs(self) -> int:
        return len(self.unfin)

    def frontier(self) -> int:
        """Window jobs before the first incomplete one (all retired)."""
        live = np.flatnonzero(self.unfin)
        return int(live[0]) if live.size else self.n_jobs

    def append(self, seg: FlatInstance, speed: float) -> None:
        """Extend the tables with one segment, rebased onto the window."""
        indeg, chain, roots, job_of, jro = kernel_tables(
            seg.edge_offsets, seg.edge_targets, seg.job_node_offsets
        )
        nb, eb = len(self.works), len(self.et)
        jb, rb = self.n_jobs, len(self.roots)
        links = np.full(seg.n_nodes, -1, dtype=np.int64)
        parts = {
            "works": seg.node_works,
            "eo": seg.edge_offsets[1:] + eb,
            "et": seg.edge_targets + nb,
            "chain": np.where(chain >= 0, chain + nb, -1),
            "job_of": job_of + jb,
            "preds": indeg,
            "jno": seg.job_node_offsets[1:] + nb,
            "jro": jro[1:] + rb,
            "roots": roots + nb,
            "unfin": np.diff(seg.job_node_offsets),
            "arr_ticks": np.ceil(seg.arrivals * speed - 1e-9).astype(np.int64),
            "arrivals": seg.arrivals,
            "dq_next": links,
            "dq_prev": links,
            "rdy": links,
        }
        for name, part in parts.items():
            setattr(self, name, np.concatenate([getattr(self, name), part]))

    def compact(self, fr: int) -> None:
        """Drop the ``fr`` retired jobs and rebase every live id.

        Retired jobs are fully complete: no worker, deque entry or
        queued job references the dropped prefix.
        """
        node_cut = int(self.jno[fr])
        e_cut = int(self.eo[node_cut])
        root_cut = int(self.jro[fr])
        self.works = self.works[node_cut:].copy()
        self.eo = self.eo[node_cut:] - e_cut
        self.et = self.et[e_cut:] - node_cut
        self.chain = _rebase(self.chain[node_cut:], node_cut)
        self.job_of = self.job_of[node_cut:] - fr
        self.preds = self.preds[node_cut:].copy()
        self.jno = self.jno[fr:] - node_cut
        self.jro = self.jro[fr:] - root_cut
        self.roots = self.roots[root_cut:] - node_cut
        for name in ("unfin", "arr_ticks", "arrivals"):
            setattr(self, name, getattr(self, name)[fr:].copy())
        for name in ("dq_next", "dq_prev"):
            setattr(self, name, _rebase(getattr(self, name)[node_cut:], node_cut))
        self.rdy = self.rdy[node_cut:].copy()
        for name in ("cur", "dq_head", "dq_tail"):
            setattr(self, name, _rebase(getattr(self, name), node_cut))

    def check(self, m: int, ks: _cext.KState) -> None:
        """Refuse restored state that would index out of bounds in C.

        Checkpoints are hash-verified against corruption, not forgery;
        this is what stands between a loaded file and raw pointers.
        """
        n, e, j, r = len(self.works), len(self.et), self.n_jobs, len(self.roots)
        # name: (length, smallest allowed value, bound), None: unbounded
        spec = {
            "eo": (n + 1, 0, e + 1), "et": (e, 0, n), "chain": (n, -1, n),
            "job_of": (n, 0, j), "preds": (n, 0, None),
            "jno": (j + 1, 0, n + 1), "jro": (j + 1, 0, r + 1),
            "roots": (r, 0, n), "unfin": (j, 0, None),
            "arr_ticks": (j, None, None), "arrivals": (j, None, None),
            "dq_next": (n, -1, n), "dq_prev": (n, -1, n), "rdy": (n, None, None),
            "cur": (m, -1, n), "fin": (m, None, None), "fails": (m, 0, None),
            "dq_head": (m, -1, n), "dq_tail": (m, -1, n),
            "raw": (_cext.BLOCK, 0, max(m - 1, 1)),
        }
        for name, (length, lo, hi) in spec.items():
            a = getattr(self, name)
            want = np.float64 if name == "arrivals" else np.int64
            if a.dtype != want or a.shape != (length,) or (
                length and ((lo is not None and a.min() < lo)
                            or (hi is not None and a.max() >= hi))
            ):
                raise CacheCorruptError(
                    f"checkpoint array {name!r} is malformed for this window"
                )
        if not (0 <= ks.q_head <= ks.next_arr <= j and 0 <= ks.p <= _cext.BLOCK):
            raise CacheCorruptError("checkpoint kernel state is out of range")

    def arena(self, a: _cext.Arena) -> None:
        """Point ``a`` at the current arrays (after any replacement)."""
        for name in _cext.ARENA_ARRAYS:
            arr = getattr(self, name, None)  # no completions: flows instead
            setattr(a, name, None if arr is None else arr.ctypes.data)
        a.wn = self.n_jobs


def _run_stream(
    stream: StreamSpec,
    m: int,
    speed: float = 1.0,
    k: int = 0,
    seed: Optional[int] = None,
    steals_per_tick: int = 1,
    max_ticks: Optional[int] = None,
    quantiles: Sequence[float] = (0.5, 0.9, 0.99),
    utilization_window: Optional[int] = None,
    checkpoint_dir: Optional[PathLike] = None,
    checkpoint_every: int = 262144,
    keep_checkpoints: int = 3,
    resume: bool = False,
    telemetry: Optional[Any] = None,
    _fast_forward: bool = True,
    _compact_min: Optional[int] = None,
) -> StreamResult:
    """Simulate steal-k-first work stealing over a lazy workload stream.

    Parameters mirror :func:`repro.sim.dispatch.run_work_stealing` where
    they overlap (``m``, ``speed``, ``k``, ``seed``, ``steals_per_tick``,
    ``max_ticks``, ``_fast_forward``); ``seed`` must be a plain int or
    None because checkpoints serialize it.  Streaming-specific knobs:

    quantiles:
        Flow-time quantiles to sketch online with P^2 (estimates; the
        max is tracked exactly regardless).
    utilization_window:
        When set, attach a :class:`~repro.metrics.online.
        WindowedUtilization` sampler with this window size (in ticks)
        and return it on the result.
    checkpoint_dir / checkpoint_every / keep_checkpoints / resume:
        Durable state snapshots every ``checkpoint_every`` completed
        jobs; ``resume=True`` restores the newest complete checkpoint
        in the directory (a fresh run starts when there is none).
    _compact_min:
        Testing knob: retire-compact once this many window jobs are
        complete (default: the stream's ``chunk_jobs``).  Any value
        produces identical results; only memory timing changes.

    Raises :class:`~repro.errors.KernelUnavailableError` when the
    compiled kernel cannot run on this host.
    """
    if not isinstance(stream, StreamSpec):
        raise TypeError(
            f"_run_stream needs a StreamSpec (got {type(stream).__name__}); "
            f"materialized instances go through engine='flat'"
        )
    _check_knobs(m, speed, k, steals_per_tick)
    if resume and checkpoint_dir is None:
        raise SweepConfigError(
            "resume=True needs checkpoint_dir: there is nowhere to resume "
            "from.  Pass checkpoint_dir=<dir> (with the same parameters as "
            "the interrupted run)."
        )
    if checkpoint_every < 1:
        raise ValueError(
            f"checkpoint_every must be >= 1 job, got {checkpoint_every}"
        )
    sigma = int(steals_per_tick)
    compact_min = (
        int(_compact_min) if _compact_min is not None else stream.chunk_jobs
    )
    if compact_min < 1:
        raise ValueError(f"_compact_min must be >= 1, got {_compact_min}")
    run = _cext.resolve_batch_kernel()  # the one kernel entry point
    if run is None:
        reason = _cext.kernel_unavailable_reason()
        raise KernelUnavailableError(
            f"streaming runs execute on the compiled tick kernel, which is "
            f"unavailable here: {reason}.  Run the materialized twin "
            f"instead -- repro.run('flat', stream.materialize(seed), ...) "
            f"gives the same max flow and stats on any host.",
            reason=reason,
        )
    n = stream.n_jobs
    token = _config_token(
        stream, m, speed, k, sigma, quantiles, utilization_window
    )

    fstats = OnlineFlowStats(quantiles)
    util = None
    if utilization_window is not None:
        util = WindowedUtilization(m, utilization_window)

    # StreamCursor validates the seed type and replaces None with drawn
    # entropy; seed_eff keys the victim RNG too, so the whole run --
    # generation and scheduling -- is a function of one integer.
    cursor = StreamCursor(stream, seed)
    seed_eff = cursor.seed
    rng = make_rng(seed_eff)

    win = _Window(m, flow_log=bool(fstats.sketches), busy_log=util is not None)
    # The kernel's float fields are OnlineFlowStats' scalar accumulators.
    ks = _cext.KState(
        nf=_cext.IDLE_AT, argmax_job=-1, busy_last=-1,
        **{name: getattr(fstats, name) for name in _cext.KSTATE_FLOATS},
    )
    if m > 1:
        # Same up-front first block as UniformVictim; the kernel refills
        # lazily through the callback, so the PCG64 stream is drawn by
        # the same numpy calls as every other engine.
        win.raw[:] = rng.integers(0, m - 1, size=_cext.BLOCK)

    total_work_seen = peak_live = segments_generated = compactions = 0
    ckpt_index = checkpoints_written = 0
    resumed_from: Optional[int] = None
    returns = dict.fromkeys(_cext.RETURN_CAUSES, 0)

    # ---- restore from the newest checkpoint, if asked -------------------
    if resume and checkpoint_dir is not None:
        found = latest_checkpoint(checkpoint_dir)
        if found is not None:
            arrays, st = load_checkpoint(found, token)
            for name in _Window.TABLES + _Window.WORKERS:
                setattr(win, name, np.ascontiguousarray(arrays[name]))
            for name, value in st["kernel"].items():
                setattr(ks, name, value)
            win.check(m, ks)
            rng.bit_generator.state = st["rng_state"]
            cursor = StreamCursor.restore(stream, st["cursor"])
            fstats.load_state(st["fstats"])
            if util is not None:
                util.load_state(st["util"])
            total_work_seen = int(st["total_work_seen"])
            peak_live = int(st["peak_live"])
            segments_generated = int(st["segments"])
            compactions = int(st["compactions"])
            ckpt_index = int(st["index"]) + 1
            checkpoints_written = int(st["checkpoints_written"])
            resumed_from = ks.completed
            if telemetry is not None:
                telemetry.emit(
                    "ckpt.restore", path=str(found), completed=ks.completed,
                    tick=ks.t,
                )

    def _bound() -> int:
        """The reference feasibility bound, over the generated prefix.

        Grows as segments arrive; once the stream is exhausted it equals
        the bound the materialized engines compute for the full instance.
        """
        if max_ticks is not None:
            return max_ticks
        last_tick = int(np.ceil(cursor.last_arrival * speed - 1e-9))
        return 4 * int(
            total_work_seen + (k + 2) * cursor.emitted + last_tick + 64 * m
            + 64
        )

    def _compact() -> None:
        nonlocal compactions
        fr = win.frontier()
        if fr == 0:
            return
        win.compact(fr)
        ks.q_head -= fr
        ks.next_arr -= fr
        ks.job_base += fr
        compactions += 1

    def _pull_segment() -> None:
        """Generate the next chunk; retire-compact first when worthwhile."""
        nonlocal peak_live, segments_generated, total_work_seen
        retired = win.frontier()
        if retired >= compact_min:
            before = win.n_jobs
            _compact()
            if telemetry is not None:
                telemetry.emit(
                    "stream.compact", retired=retired, window_before=before,
                    window_after=win.n_jobs, completed=ks.completed,
                )
        seg = cursor.next_segment()
        assert seg is not None  # the kernel asks only while not exhausted
        win.append(seg, speed)
        total_work_seen += int(seg.node_works.sum())
        segments_generated += 1
        live = cursor.emitted - ks.completed
        if live > peak_live:
            peak_live = live
        if telemetry is not None:
            telemetry.emit(
                "stream.segment", index=segments_generated - 1,
                jobs=seg.n_jobs, window_jobs=win.n_jobs, live=live,
            )

    def _drain_logs() -> None:
        """Feed the kernel's logs to the sketches and the sampler."""
        if ks.flow_n:
            flows = win.flow_log[: ks.flow_n].tolist()
            for sketch in fstats.sketches.values():
                update = sketch.update
                for flow in flows:
                    update(flow)
            ks.flow_n = 0
        if ks.busy_n:
            pairs = win.busy_log[: 2 * ks.busy_n].tolist()
            record = util.maybe_record
            for x in range(0, len(pairs), 2):
                record(pairs[x], pairs[x + 1])
            ks.busy_n = 0

    def _sync_fstats() -> None:
        for name in _cext.KSTATE_FLOATS:
            setattr(fstats, name, getattr(ks, name))
        fstats.argmax_job = ks.argmax_job if ks.argmax_job >= 0 else None
        fstats.count = ks.completed

    def _save_ckpt() -> None:
        """Durably snapshot every mutable value the loop can observe."""
        nonlocal ckpt_index, checkpoints_written
        _sync_fstats()
        arrays = {
            name: getattr(win, name)
            for name in _Window.TABLES + _Window.WORKERS
        }
        state = {
            "kernel": {name: getattr(ks, name) for name, _ in ks._fields_},
            "total_work_seen": total_work_seen,
            "peak_live": peak_live,
            "segments": segments_generated,
            "compactions": compactions,
            "checkpoints_written": checkpoints_written + 1,
            "rng_state": rng.bit_generator.state,
            "cursor": cursor.state_dict(),
            "fstats": fstats.state_dict(),
            "util": util.state_dict() if util is not None else None,
            "seed": seed_eff,
        }
        path = save_checkpoint(
            checkpoint_dir, ckpt_index, arrays, state, token,
            keep=keep_checkpoints,
        )
        manifest = build_manifest(
            "stream-checkpoint",
            config={
                "stream": stream.spec_token(), "m": m, "speed": speed,
                "k": k, "steals_per_tick": sigma,
                "quantiles": [float(q) for q in quantiles],
                "utilization_window": utilization_window,
            },
            seed=seed_eff,
            extra={
                "checkpoint": str(path), "completed": ks.completed,
                "tick": ks.t, "ckpt_index": ckpt_index,
            },
        )
        write_manifest(manifest, Path(checkpoint_dir) / "manifests")
        if telemetry is not None:
            telemetry.emit(
                "ckpt.save", path=str(path), completed=ks.completed,
                tick=ks.t, index=ckpt_index,
            )
        saved_index = ckpt_index
        ckpt_index += 1
        checkpoints_written += 1
        # Deterministic chaos hook: fires AFTER the durable write, so a
        # kill here always leaves a valid checkpoint to resume from.
        maybe_inject("checkpoint", index=saved_index)

    if telemetry is not None:
        telemetry.emit(
            "stream.start", n_jobs=n, chunk_jobs=stream.chunk_jobs, m=m,
            k=k, steals_per_tick=sigma, speed=speed, seed=seed_eff,
            resumed_from=resumed_from,
        )

    if resumed_from is None:
        _pull_segment()
        ks.next_at = ks.t = int(win.arr_ticks[0])  # nothing happens before

    ckpt_enabled = checkpoint_dir is not None
    last_ckpt_completed = ks.completed
    arena = _cext.Arena(
        flow_cap=_LOG_CAP + m, busy_cap=_LOG_CAP, n=n, m=m, k=k,
        sigma=sigma, fast_forward=int(_fast_forward), speed=speed,
    )

    def _refill(_rep: int) -> None:
        win.raw[:] = rng.integers(0, m - 1, size=_cext.BLOCK)

    refill = _cext.REFILL_CFUNC(_refill)
    while True:
        win.arena(arena)
        arena.exhausted = int(cursor.exhausted)
        arena.max_ticks = _bound()
        # A checkpoint is due once ``checkpoint_every`` more jobs have
        # completed since the last save (or the restore).
        arena.ckpt_at = (
            last_ckpt_completed + checkpoint_every if ckpt_enabled else 2**62
        )
        rc = run(ctypes.byref(arena), ctypes.byref(ks), refill, 0)
        returns[_cext.RETURN_CAUSES[rc]] += 1
        _drain_logs()
        if rc == _cext.RC_DONE:
            break
        if rc == _cext.RC_NEED_SEGMENT:
            _pull_segment()
        elif rc == _cext.RC_CHECKPOINT:
            # Post-release is a clean cut: every arrival <= t is
            # released, so the resumed call skips the release block.
            _compact()
            _save_ckpt()
            last_ckpt_completed = ks.completed
        elif rc == _cext.RC_MAX_TICKS:
            raise RuntimeError(
                f"work-stealing run exceeded max_ticks={arena.max_ticks} "
                f"({ks.completed}/{n} jobs complete) -- stream may be "
                f"overloaded"
            )
    if util is not None:
        util.maybe_record(ks.t_top, ks.busy_last)  # the final loop top
    _sync_fstats()

    stats = SimulationStats(
        busy_steps=total_work_seen, admissions=n, elapsed_ticks=ks.t,
        **{name: getattr(ks, name) for name in _cext.KSTATE_STATS},
    )

    result = StreamResult(
        scheduler=_scheduler_label(k, "uniform", False, "fifo"),
        m=m, speed=speed, seed=seed_eff, n_jobs=n,
        max_flow=fstats.max_flow, argmax_job=fstats.argmax_job,
        mean_flow=fstats.mean_flow, quantiles=fstats.quantile_estimates(),
        makespan=fstats.last_completion, stats=stats,
        peak_live_jobs=peak_live, segments_generated=segments_generated,
        compactions=compactions, checkpoints_written=checkpoints_written,
        resumed_from=resumed_from, utilization=util,
    )
    if telemetry is not None:
        telemetry.emit(
            "stream.done", max_flow=result.max_flow, completed=ks.completed,
            elapsed_ticks=ks.t, peak_live_jobs=peak_live,
            segments=segments_generated, compactions=compactions,
            checkpoints=checkpoints_written,
            kernel_calls=sum(returns.values()), returns=returns,
        )
    return result
