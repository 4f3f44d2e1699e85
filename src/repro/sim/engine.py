"""Discrete-time engine for the steal-k-first work-stealing schedulers.

The paper's model (Sections 4--5): ``m`` workers of speed ``s``; one *time
step* (tick) is the time an ``s``-speed worker needs for one unit of work,
so a tick spans ``1/s`` time units; each steal attempt costs exactly one
tick.  New jobs join a global FIFO queue; a worker with an empty deque
either steals from a random victim or admits the head-of-line job,
according to the steal-k-first policy:

* try random steals first, and
* admit from the global queue only after ``k`` *consecutive* failed steal
  attempts (``k = 0`` is admit-first: admit whenever the queue is
  non-empty, steal only when it is empty).

Within a tick the engine runs two phases: all busy workers execute one
work unit (phase A), then every worker that was idle at the start of the
tick performs one acquisition action (phase B).  Thieves therefore see
work pushed earlier in the same tick, matching the racy behaviour of a
real runtime while staying deterministic for a fixed seed.

Exactness and speed
-------------------
All state is integral (ticks, work units), so runs are bit-reproducible.
Three lossless fast-forward modes keep pure-Python cost acceptable:

* **system empty**: nothing is running or queued, so the engine jumps to
  the next arrival, charging the gap as idle time;
* **all-busy**: when every worker is executing, no steal or admission can
  occur, so the engine blind-skips ``min(remaining) - 1`` ticks at once
  and lets the general path run the completion tick itself.  There is no
  cap at the next arrival: arrivals only join the queue, and no idle
  worker exists that could react to the queue while all are busy;
* **nothing stealable**: when every deque and the global queue are empty
  but some workers are busy, idle workers can only fail steals, so the
  engine blind-skips to one tick before the next completion or arrival,
  charging the skipped failed-steal ticks to the statistics in bulk.

All three modes change no observable scheduling decision; they only skip
ticks in which no decision is possible.  Passing ``_fast_forward=False``
disables all three and runs every tick through the general path -- the
brute-force reference the equivalence tests compare against.

Hot-loop layout
---------------
The general tick is pure-Python and dominates every experiment sweep, so
its state lives in the structure-of-arrays layout of
:class:`repro.sim.worker.WorkerArrays` (plain Python lists bound to
locals), the completion cascade of
:meth:`repro.sim.jobstate.JobExecution.finish_node` is inlined, and all
``busy_steps`` accounting is settled once per node at completion (a node
executes entirely on one worker, and every started node finishes before
the run ends, so the totals are identical to per-tick accounting).  The
issue that motivated this layout prescribed numpy ``int64`` worker
vectors; measurement showed numpy *scalar* indexing is ~4x slower than
list indexing at realistic ``m`` (8--64 workers), so the per-worker state
stays in lists and numpy appears only at the array-in/array-out edges.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.dag.job import JobSet
from repro.sim.jobstate import JobExecution
from repro.sim.policies import make_victim_policy
from repro.sim.queue import GlobalAdmissionQueue, WeightedAdmissionQueue
from repro.sim.result import ScheduleResult, SimulationStats
from repro.sim.rng import SeedLike, make_rng
from repro.sim.sampling import SystemSampler
from repro.sim.trace import TraceRecorder
from repro.sim.worker import IDLE, WorkerArrays


def _scheduler_label(
    k: int, victim_policy: str, steal_half: bool, admission: str
) -> str:
    """Human-readable scheduler name shared by all return paths."""
    label = f"steal-{k}-first" if k > 0 else "admit-first"
    if victim_policy != "uniform":
        label += f"/{victim_policy}"
    if steal_half:
        label += "/half"
    if admission != "fifo":
        label += f"/{admission}-admission"
    return label


def _check_knobs(
    m: int, speed: float, k: int, steals_per_tick: int, admission: str = "fifo"
) -> None:
    """Argument validation shared by every work-stealing engine.

    Same messages in the same order everywhere, so callers cannot tell
    the engines apart by their errors.
    """
    if m < 1:
        raise ValueError(f"need at least one worker, got m={m}")
    if speed <= 0:
        raise ValueError(f"speed must be positive, got {speed}")
    if k < 0:
        raise ValueError(f"steal-k-first requires k >= 0, got {k}")
    if steals_per_tick < 1:
        raise ValueError(
            f"steals_per_tick must be >= 1, got {steals_per_tick}"
        )
    if admission not in ("fifo", "weight"):
        raise ValueError(
            f"unknown admission policy {admission!r}; expected 'fifo' or 'weight'"
        )


def _run_work_stealing(
    jobset: JobSet,
    m: int,
    speed: float = 1.0,
    k: int = 0,
    seed: SeedLike = None,
    trace: Optional[TraceRecorder] = None,
    max_ticks: Optional[int] = None,
    steals_per_tick: int = 1,
    victim_policy: str = "uniform",
    steal_half: bool = False,
    admission: str = "fifo",
    sampler: Optional[SystemSampler] = None,
    _fast_forward: bool = True,
) -> ScheduleResult:
    """Simulate steal-k-first work stealing exactly, tick by tick.

    Parameters
    ----------
    jobset:
        The instance.  Node works are integers (work units); a job
        arriving at time ``r`` becomes admissible at the first tick
        boundary at or after ``r * speed``.  An empty instance yields an
        empty result immediately.
    m:
        Number of workers.
    speed:
        Worker speed ``s``; a tick spans ``1/s`` time units.
    k:
        Steal-k-first parameter; ``k = 0`` is admit-first.
    seed:
        Seed or generator for victim selection (the only randomness).
    trace:
        Optional :class:`TraceRecorder` for feasibility audits.  Nodes
        execute without preemption under work stealing, so each node
        yields exactly one trace interval.
    max_ticks:
        Safety valve: abort (with ``RuntimeError``) if the run exceeds
        this many ticks.  Defaults to a generous bound derived from the
        instance (total work, span, arrival horizon and steal overhead).
    steals_per_tick:
        Cost model for acquisition actions.  ``1`` (default) is the
        paper's *theoretical* model: every steal attempt costs a full
        unit-of-work time step (Sections 4--5 charge exactly that, and
        the ``(k+1)``-speed requirement of Theorem 4.1 comes from it).
        Larger values model the paper's *experimental* reality, where a
        TBB steal attempt costs microseconds against millisecond jobs
        ("the constant k steal attempts for admitting a job is
        negligible in practice", Section 4): an idle worker may perform
        up to this many acquisition actions per tick, i.e. one steal
        costs ``1/steals_per_tick`` of a work unit.  A worker still
        acquires at most one node per tick.  The Figure 2 reproduction
        uses a large value; the theorem and lower-bound benches use 1.
    victim_policy:
        Victim selection for steal attempts: ``"uniform"`` (the paper's
        analyzed policy, default), ``"round-robin"`` (deterministic
        sweep), or ``"max-deque"`` (an oracle upper bound).  See
        :mod:`repro.sim.policies`.
    steal_half:
        When True, a successful steal transfers the top *half* (rounded
        up) of the victim's deque instead of a single entry: the thief
        executes the first stolen node and queues the rest on its own
        deque.  A classic runtime optimization that spreads a wide job
        in O(log width) steals instead of O(width); not part of the
        paper's analysis, exposed for the steal-policy ablation.
    admission:
        ``"fifo"`` (the paper's global queue) or ``"weight"`` --
        admission pops the biggest-weight waiting job, the distributed
        analogue of BWF for the Section 7 weighted objective (this
        repository's extension; see
        :class:`repro.sim.queue.WeightedAdmissionQueue`).
    sampler:
        Optional :class:`repro.sim.sampling.SystemSampler` recording
        periodic snapshots of (busy workers, queue length, stealable
        deques, completions) for time-series diagnostics.  Snapshots are
        also recorded at every fast-forward boundary (entry and exit),
        so time series have no silent gaps across skipped spans.
    _fast_forward:
        Private.  ``False`` disables all three fast-forward modes and
        simulates every tick through the general path; used by the
        equivalence tests as a brute-force reference.  Scheduling
        decisions, completions, ``busy_steps`` and ``admissions`` are
        identical either way, but the *classification* of provably
        decision-free idle ticks differs: the system-empty fast-forward
        charges them to ``idle_steps``, while the brute-force path runs
        phase B and charges them as failed steal attempts.

    Returns
    -------
    ScheduleResult
        With work-stealing statistics: ``busy_steps`` (== total work),
        ``steal_attempts``, ``failed_steals``, ``admissions`` (== n),
        ``idle_steps`` (ticks idled while the whole system was empty),
        ``elapsed_ticks``, plus the observability counters
        ``admission_wait_ticks`` (summed release-to-admission latency),
        ``ff_skipped_ticks`` (ticks the fast-forwards skipped) and
        ``max_queue_depth`` (peak global-queue length).  All counters are
        maintained off the hot path, so they cost nothing measurable.
    """
    _check_knobs(m, speed, k, steals_per_tick, admission)
    sigma = int(steals_per_tick)

    rng = make_rng(seed)
    n = len(jobset)
    arrivals = np.asarray(jobset.arrivals, dtype=np.float64)
    weights = np.asarray(jobset.weights, dtype=np.float64)
    completions = np.zeros(n, dtype=np.float64)
    label = _scheduler_label(k, victim_policy, steal_half, admission)
    recorded_seed = None if isinstance(seed, np.random.Generator) else seed

    if n == 0:
        # Nothing ever arrives: zero ticks elapse, no decisions exist.
        # Work-stealing fields are real zeros (the engine *did* measure
        # them), unlike the None of engines that cannot.
        return ScheduleResult(
            scheduler=label,
            m=m,
            speed=speed,
            arrivals=arrivals,
            completions=completions,
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

    # Tick at whose start each job is present in the global queue; kept as
    # plain Python ints -- the hot loop compares them every tick and numpy
    # scalar comparisons cost ~4x a native int compare.
    arr_ticks: List[int] = [
        int(v) for v in np.ceil(arrivals * speed - 1e-9).astype(np.int64)
    ]

    if max_ticks is None:
        # Loose feasibility bound: all work serialized + per-job overhead
        # (admission + k failed steals each) + the arrival horizon itself.
        max_ticks = int(
            jobset.total_work + (k + 2) * n + arr_ticks[-1] + 64 * m + 64
        ) * 4

    state = WorkerArrays(m)
    # Hot-loop locals: every per-worker array bound once (attribute and
    # even global lookups cost real time at ~1e7 touches per run).
    cur = state.current
    rem = state.remaining
    starts = state.start_tick
    deques = state.deques
    fails = state.failed_steals
    wbusy = state.busy_steps
    wsteal = state.steal_steps
    wadmit = state.admit_steps

    if admission == "fifo":
        queue: GlobalAdmissionQueue[JobExecution] = GlobalAdmissionQueue()
    else:
        queue = WeightedAdmissionQueue()  # type: ignore[assignment]
    queue_release = queue.release
    queue_admit = queue.admit
    victims = make_victim_policy(victim_policy, rng, m) if m > 1 else None
    choose = victims.choose if victims is not None else None
    stats = SimulationStats()

    pending = jobset.jobs
    next_arr = 0
    next_at = arr_ticks[0]  # tick of the next unreleased arrival
    completed = 0
    t = next_at  # nothing can happen before the first arrival

    n_busy = 0  # number of workers with a current node
    stealable = 0  # number of non-empty deques
    # Aggregate counters as local ints, flushed into `stats` at the end.
    st_busy = 0
    st_att = 0
    st_fail = 0
    st_idle = 0
    st_adm = 0
    # Observability counters (ISSUE 3).  None lives in the per-tick hot
    # path: queue depth is sampled only when arrivals were just released
    # (the only place the queue grows), admission wait only per admission,
    # fast-forward savings only inside the fast-forward branches.
    st_admwait = 0  # summed release->admission latency, in ticks
    st_ff = 0  # ticks skipped by the lossless fast-forwards
    st_maxq = 0  # peak global-queue depth

    ff = _fast_forward
    boundary = False  # force a sampler snapshot at the next loop top

    def _complete(i: int, end_tick: int) -> None:
        """Finish worker ``i``'s current node at the end of ``end_tick``.

        Settles the node's busy accounting, enables successors, continues
        depth-first with the first enabled child (pushing the rest), else
        pops the worker's own deque; these transitions are free, as only
        steals cost time in the model.  Phase A of the general tick keeps
        an inlined copy of this body (the one measured hot site); keep
        the two in sync.
        """
        nonlocal completed, n_busy, stealable, st_busy
        entry = cur[i]
        je, node = entry[0], entry[1]
        if trace is not None:
            trace.record(
                i, je.job.job_id, node, starts[i] / speed, (end_tick + 1) / speed
            )
        work = je.works[node]
        wbusy[i] += work
        st_busy += work
        u = je.unfinished - 1
        je.unfinished = u
        preds = je.remaining_preds
        enabled: List[int] = []
        for succ in je.succs[node]:
            p = preds[succ] - 1
            preds[succ] = p
            if p == 0:
                enabled.append(succ)
        if u == 0:
            c = (end_tick + 1) / speed
            je.completion = c
            completions[je.job.job_id] = c
            completed += 1
        nt = end_tick + 1
        if enabled:
            # Children become legal to execute from tick end_tick + 1.
            cur[i] = (je, enabled[0], nt)
            rem[i] = je.works[enabled[0]]
            starts[i] = nt
            fails[i] = 0
            if len(enabled) > 1:
                dq = deques[i]
                if not dq:
                    stealable += 1
                for u2 in enabled[1:]:
                    dq.append((je, u2, nt))
        else:
            dq = deques[i]
            if dq:
                nxt = dq.pop()
                if not dq:
                    stealable -= 1
                cur[i] = nxt
                rem[i] = nxt[0].works[nxt[1]]
                starts[i] = nt
                fails[i] = 0
            else:
                cur[i] = None
                rem[i] = IDLE
                n_busy -= 1

    while completed < n:
        # ---- release arrivals due at or before the current tick ---------
        if next_at <= t:
            while next_arr < n and arr_ticks[next_arr] <= t:
                queue_release(JobExecution(pending[next_arr]))
                next_arr += 1
            next_at = arr_ticks[next_arr] if next_arr < n else max_ticks + 1
            # The queue only ever grows here (admissions pop), so its
            # peak is always observed right after a release batch.
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
                sampler.record_boundary(t, n_busy, len(queue), stealable, completed)
                boundary = False
            else:
                sampler.maybe_record(t, n_busy, len(queue), stealable, completed)

        if ff:
            # ---- fast-forward: whole system empty -----------------------
            if n_busy == 0 and not queue:
                # No work anywhere; jump to the next arrival.  Idle workers
                # would spend the gap failing steals, so saturate their
                # admission counters and account the gap as idle time.
                gap = next_at - t
                for i in range(m):
                    f = fails[i] + gap * sigma
                    fails[i] = f if f < k else k
                st_idle += gap * m
                st_ff += gap
                if sampler is not None:
                    sampler.record_boundary(t, 0, 0, stealable, completed)
                    boundary = True
                t += gap
                continue

            # ---- fast-forward: every worker busy ------------------------
            if n_busy == m:
                # Blind-skip to one tick before the earliest completion and
                # let the general path run the completion tick itself; no
                # cap at arrivals (no idle worker can react to the queue).
                blind = min(rem) - 1
                if blind > 0:
                    st_ff += blind
                    for i in range(m):
                        rem[i] -= blind
                    if sampler is not None:
                        sampler.record_boundary(
                            t, n_busy, len(queue), stealable, completed
                        )
                        boundary = True
                    t += blind
                    continue
                # blind == 0: the completion tick; fall through.

            # ---- fast-forward: nothing stealable, nothing admissible ----
            # While every deque and the queue are empty, idle workers can
            # only fail steals -- but the *final* tick before the next
            # completion (or arrival) must run through the general path,
            # because a completion in phase A publishes stealable work
            # that phase B thieves may take within the same tick.  So we
            # blind-skip only delta - 1 ticks, during which provably
            # nothing completes.  (`min(rem)` is the busy-worker minimum:
            # idle workers hold the IDLE sentinel.)
            elif stealable == 0 and n_busy > 0 and not queue:
                delta = min(rem)
                if next_arr < n and next_at - t < delta:
                    delta = next_at - t
                blind = delta - 1
                if blind >= 1:
                    n_idle = m - n_busy
                    for i in range(m):
                        if cur[i] is not None:
                            rem[i] -= blind
                        else:
                            f = fails[i] + blind * sigma
                            fails[i] = f if f < k else k
                            wsteal[i] += blind
                    st_att += blind * n_idle * sigma
                    st_fail += blind * n_idle * sigma
                    st_ff += blind
                    if sampler is not None:
                        sampler.record_boundary(
                            t, n_busy, 0, 0, completed
                        )
                        boundary = True
                    t += blind
                    continue
                # delta == 1: fall through to the general tick.

        # ---- general tick -------------------------------------------------
        # Phase A: workers busy at the start of the tick execute one unit.
        # The completion cascade is an inlined copy of _complete() above
        # (the call overhead is measurable at ~1e4 completions per run);
        # keep the two in sync.
        idle_at_start: List[int] = []
        for i in range(m):
            if cur[i] is None:
                idle_at_start.append(i)
                continue
            r = rem[i] - 1
            rem[i] = r
            if r == 0:
                entry = cur[i]
                je, node = entry[0], entry[1]
                if trace is not None:
                    trace.record(
                        i, je.job.job_id, node, starts[i] / speed, (t + 1) / speed
                    )
                work = je.works[node]
                wbusy[i] += work
                st_busy += work
                u = je.unfinished - 1
                je.unfinished = u
                preds = je.remaining_preds
                enabled: List[int] = []
                for succ in je.succs[node]:
                    p = preds[succ] - 1
                    preds[succ] = p
                    if p == 0:
                        enabled.append(succ)
                if u == 0:
                    c = (t + 1) / speed
                    je.completion = c
                    completions[je.job.job_id] = c
                    completed += 1
                if enabled:
                    cur[i] = (je, enabled[0], t + 1)
                    rem[i] = je.works[enabled[0]]
                    starts[i] = t + 1
                    fails[i] = 0
                    if len(enabled) > 1:
                        dq = deques[i]
                        if not dq:
                            stealable += 1
                        nt = t + 1
                        for u2 in enabled[1:]:
                            dq.append((je, u2, nt))
                else:
                    dq = deques[i]
                    if dq:
                        nxt = dq.pop()
                        if not dq:
                            stealable -= 1
                        cur[i] = nxt
                        rem[i] = nxt[0].works[nxt[1]]
                        starts[i] = t + 1
                        fails[i] = 0
                    else:
                        cur[i] = None
                        rem[i] = IDLE
                        n_busy -= 1

        # Phase B: workers idle at the start of the tick acquire.  Each
        # performs up to `sigma` acquisition actions and starts at most
        # one node.  In the theoretical model (sigma == 1) the
        # acquisition consumes the whole tick and work begins next tick;
        # in the practical model (sigma > 1) acquisitions are sub-tick
        # actions, so the acquired node executes its first unit within
        # the same tick.
        for i in idle_at_start:
            budget = sigma
            admitted = False
            while budget > 0:
                if fails[i] >= k and queue:
                    # Admit the head-of-line job: take its first root,
                    # push the rest (ready since the arrival tick <= t).
                    je = queue_admit()
                    roots = je.job.dag.roots
                    cur[i] = (je, roots[0], t)
                    rem[i] = je.works[roots[0]]
                    starts[i] = t + 1
                    fails[i] = 0
                    if len(roots) > 1:
                        dq = deques[i]
                        if not dq:
                            stealable += 1
                        for rt in roots[1:]:
                            dq.append((je, rt, t))
                    n_busy += 1
                    wadmit[i] += 1
                    st_adm += 1
                    # Admission latency: the job was present in the queue
                    # from its release tick (job ids are dense, so the
                    # arrival array indexes directly).
                    st_admwait += t - arr_ticks[je.job.job_id]
                    admitted = True
                    if sigma > 1:
                        # Sub-tick admission: execute one unit this tick.
                        starts[i] = t
                        r = rem[i] - 1
                        rem[i] = r
                        if r == 0:
                            _complete(i, t)
                    break  # admission consumes the rest of the tick
                if stealable == 0:
                    # No deque can satisfy a steal, and later workers in
                    # this phase can only *remove* stealable entries, so
                    # every remaining attempt this tick fails.  When the
                    # queue is non-empty, burn just enough failures to
                    # unlock admission; otherwise burn the whole budget.
                    if queue and k - fails[i] <= budget:
                        burned = k - fails[i]
                    else:
                        burned = budget
                    f = fails[i] + burned
                    fails[i] = f if f < k else k
                    st_att += burned
                    st_fail += burned
                    budget -= burned
                    if budget > 0:
                        continue  # unlocked admission; loop admits next
                    break
                # A live steal attempt against a chosen victim.
                st_att += 1
                budget -= 1
                vdq = deques[choose(i, deques)]
                if vdq:
                    entry = vdq.popleft()
                    if steal_half:
                        # Take the rest of the top half: the victim held
                        # L0 entries, the thief takes ceil(L0/2) total --
                        # the first is `entry`, leaving len//2 extras to
                        # move (oldest first) onto the thief's own deque.
                        extra = len(vdq) // 2
                        if extra > 0:
                            dq = deques[i]
                            for _ in range(extra):
                                dq.append(vdq.popleft())
                            stealable += 1  # thief's deque was empty
                    if not vdq:
                        stealable -= 1
                    cur[i] = entry
                    rem[i] = entry[0].works[entry[1]]
                    starts[i] = t + 1
                    fails[i] = 0
                    n_busy += 1
                    # Same-tick execution only if the node was already
                    # ready at the start of this tick (entry[2] <= t);
                    # otherwise its predecessor finished within this very
                    # tick and starting now would violate precedence at
                    # trace granularity.
                    if sigma > 1 and entry[2] <= t:
                        starts[i] = t
                        r = rem[i] - 1
                        rem[i] = r
                        if r == 0:
                            _complete(i, t)
                    break  # the steal consumes the rest of the tick
                fails[i] += 1
                st_fail += 1
            if not admitted:
                wsteal[i] += 1  # the tick went to (possibly failed) steals

        t += 1

    stats.busy_steps = st_busy
    stats.steal_attempts = st_att
    stats.failed_steals = st_fail
    stats.admissions = st_adm
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


def run_work_stealing(*args, **kwargs) -> ScheduleResult:
    """Deprecated alias of the tick engine; use :func:`repro.run`.

    Forwards every argument unchanged to the private implementation, so
    results stay bit-identical; emits one :class:`DeprecationWarning`
    per process.  Schedulers should be run through :func:`repro.run`
    (or :meth:`repro.core.base.Scheduler.run`), which also accepts
    ``telemetry=``.
    """
    from repro._deprecation import warn_once

    warn_once("repro.sim.engine.run_work_stealing", "repro.run")
    return _run_work_stealing(*args, **kwargs)
