"""Supervised process-pool execution of parallel experiment cells.

Every experiment sweep in this package decomposes into independent cells
-- one (workload, QPS, repetition) triple, or one (grid point,
repetition) pair -- whose seeds derive from their *coordinates* via
:func:`repro.sim.rng.derive_seed`, never from execution order.  That
discipline makes cell fan-out safe: running cells across a process pool
produces bit-identical per-cell results to running them serially, in any
order, and ``tests/experiments/test_parallel.py`` asserts it.  It also
makes cells safely *re-runnable*: a cell that died or timed out can be
executed again from the same task tuple and must produce the same
floats, which is the foundation the fault tolerance below stands on.

Worker-count resolution (first match wins):

1. an explicit ``max_workers`` argument;
2. the ``REPRO_JOBS`` environment variable (also settable via the CLI's
   ``--jobs`` flag);
3. ``os.cpu_count()``.

``max_workers <= 1`` -- or any failure to stand up or use the pool
(sandboxed platforms without process support, unpicklable callables such
as lambda factories) -- degrades gracefully to the plain serial loop,
which is always semantically equivalent.  Losing parallelism that was
implicitly requested is worth knowing about, so the fallback emits a
one-time :class:`RuntimeWarning` naming the callable (and a
``dispatch.fallback`` telemetry event).

Fault tolerance (ISSUE 4)
-------------------------

Paper-scale sweeps (100k jobs per point) run for hours; pre-ISSUE-4, a
single crashed or hung pool worker aborted the whole run and could leak
``multiprocessing.shared_memory`` blocks.  :func:`parallel_map` now
*supervises* its pool:

* **per-cell deadlines** -- ``cell_timeout`` (argument >
  ``REPRO_CELL_TIMEOUT`` env > the CLI's ``--cell-timeout``): a cell
  running past its deadline is declared hung, the pool is torn down
  (hung workers are terminated), and the cell is retried;
* **bounded retry with deterministic exponential backoff** --
  ``retries`` (argument > ``REPRO_RETRIES`` > default 2): a crashed,
  hung, or :class:`~repro.errors.FaultInjected` cell re-runs from its
  coordinate-derived task tuple, so the recovered result is
  bit-identical; the backoff schedule is a pure function
  (:func:`backoff_schedule`) with no jitter, so recovery behavior is as
  reproducible as the results;
* **pool respawn** -- a :class:`BrokenProcessPool` (worker killed by
  the OS, segfault, injected ``os._exit``) recycles the executor and
  resubmits every incomplete cell.  Cells that already completed keep
  their results; completed work is never lost;
* **incremental checkpointing** -- the ``on_result`` callback fires in
  the parent as each cell completes (in completion order), which is how
  sweeps flush finished cells to the content-addressed cache *before*
  the batch ends: a killed sweep resumes losslessly with ``--resume``;
* **guaranteed shared-memory cleanup** -- every published block lands
  in a process-wide unlink registry reclaimed by ``finally`` blocks and
  an ``atexit`` sweep (:func:`reclaim_shared_memory`), so even a parent
  dying mid-sweep leaves ``/dev/shm`` clean.

Permanent failures surface as typed exceptions
(:class:`~repro.errors.CellTimeoutError`,
:class:`~repro.errors.CellCrashedError`) once the retry budget is
exhausted.  Every recovery action emits a structured telemetry event
(``fault.timeout``, ``fault.crash``, ``fault.cell_error``,
``fault.retry``, ``fault.giveup``, ``pool.respawn``, ``shm.reclaim``),
so ``summarize_events`` / ``audit_events`` can report fault counts per
run and ``tools/bench_gate.py --telemetry`` can refuse bench runs that
needed unrecovered faults.  The deterministic chaos harness in
:mod:`repro.testing.faults` exists to prove all of the above.

Zero-copy dispatch
------------------

Shipping a whole :class:`~repro.dag.job.JobSet` object graph to each
worker (the pre-ISSUE-2 design) pays pickling cost proportional to the
instance's node count *per task*.  :class:`SharedInstance` instead
publishes the instance's flat CSR arrays (:mod:`repro.dag.flat`) into a
``multiprocessing.shared_memory`` block once; tasks then carry only a
tiny layout dict, and each worker attaches the block and rebuilds the
object view once, caching it for every subsequent task that references
the same block (:func:`attach_jobset`).
"""

from __future__ import annotations

import atexit
import os
import time
import warnings
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from pickle import PicklingError
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    TypeVar,
)

from repro.dag.flat import FlatInstance, pack_into, to_jobset, unpack_from
from repro.dag.job import JobSet
from repro.errors import CellCrashedError, CellTimeoutError, FaultInjected

T = TypeVar("T")
R = TypeVar("R")

#: Environment variable for the per-cell deadline in seconds (the CLI's
#: ``--cell-timeout`` flag).  Unset / non-positive means no deadline.
CELL_TIMEOUT_ENV = "REPRO_CELL_TIMEOUT"

#: Environment variable for the per-cell retry budget (the CLI's
#: ``--retries`` flag).
RETRIES_ENV = "REPRO_RETRIES"

#: Environment variable overriding the base backoff delay in seconds
#: (tests set it tiny so chaos runs stay fast).
BACKOFF_ENV = "REPRO_RETRY_BACKOFF"

#: Default retry budget per cell: one crash plus one unlucky rerun.
DEFAULT_RETRIES = 2

#: Default base backoff delay (doubles per attempt) and its cap.
DEFAULT_BACKOFF_BASE = 0.05
BACKOFF_CAP = 2.0

#: Exceptions from the cell body that the supervisor retries.  Worker
#: death (``BrokenProcessPool``) and deadline expiry are always
#: retried; in-cell exceptions are, by default, treated as deterministic
#: user errors and propagated immediately -- except these.
RETRYABLE_EXCEPTIONS: Tuple[type, ...] = (FaultInjected,)

#: Pool-machinery failures that degrade the whole batch to the serial
#: loop (which reproduces any genuine error from ``fn`` directly).
_FALLBACK_EXCEPTIONS = (
    PicklingError,
    AttributeError,
    TypeError,
    ImportError,
    OSError,
    NotImplementedError,
)

#: Callables already warned about (by identity token), so a sweep with
#: hundreds of cells warns once, not per call.
_FALLBACK_WARNED: set = set()


def default_workers() -> int:
    """Worker-process count: ``REPRO_JOBS`` env override, else CPU count.

    The fallback is ``os.cpu_count()`` -- the machine's *logical* CPU
    count, SMT threads included, not the physical core count and not
    the process affinity mask (``BENCH_engine.json``'s host block
    records all three side by side).  On an SMT host that oversubscribes
    the physical cores roughly 2x, which is usually right for these
    simulation workloads; set ``REPRO_JOBS`` explicitly to pin a
    different width.  A malformed or non-positive ``REPRO_JOBS`` falls
    back to the CPU count rather than erroring: an experiment run
    should never die on a stale environment variable.
    """
    env = os.environ.get("REPRO_JOBS")
    if env is not None:
        try:
            value = int(env)
        except ValueError:
            value = 0
        if value >= 1:
            return value
    return os.cpu_count() or 1


def default_cell_timeout() -> Optional[float]:
    """Per-cell deadline from ``REPRO_CELL_TIMEOUT``, or None.

    Malformed or non-positive values mean "no deadline" -- same
    philosophy as :func:`default_workers`: stale environment must never
    kill a run.
    """
    env = os.environ.get(CELL_TIMEOUT_ENV)
    if env is None:
        return None
    try:
        value = float(env)
    except ValueError:
        return None
    return value if value > 0 else None


def default_retries() -> int:
    """Retry budget from ``REPRO_RETRIES``, else :data:`DEFAULT_RETRIES`."""
    env = os.environ.get(RETRIES_ENV)
    if env is not None:
        try:
            value = int(env)
        except ValueError:
            value = -1
        if value >= 0:
            return value
    return DEFAULT_RETRIES


def default_backoff_base() -> float:
    """Base backoff delay from ``REPRO_RETRY_BACKOFF``, else the default."""
    env = os.environ.get(BACKOFF_ENV)
    if env is not None:
        try:
            value = float(env)
        except ValueError:
            value = -1.0
        if value >= 0:
            return value
    return DEFAULT_BACKOFF_BASE


def backoff_schedule(
    retries: int,
    base: Optional[float] = None,
    cap: float = BACKOFF_CAP,
) -> List[float]:
    """The deterministic delay (seconds) before each retry attempt.

    Pure exponential doubling from ``base``, capped at ``cap``, with
    **no jitter**: two identical chaos runs must take identical
    recovery detours, or "bit-identical under faults" would be
    unfalsifiable.  ``schedule[k]`` is the pause before retry ``k + 1``.
    """
    if base is None:
        base = default_backoff_base()
    return [min(cap, base * (2.0 ** k)) for k in range(max(0, retries))]


def _backoff_delay(attempt: int, base: Optional[float] = None) -> float:
    """Delay before retry number ``attempt`` (1-based)."""
    if base is None:
        base = default_backoff_base()
    return min(BACKOFF_CAP, base * (2.0 ** max(0, attempt - 1)))


def _warn_serial_fallback(fn: Callable, exc: BaseException) -> None:
    """One-time warning that a pool attempt degraded to the serial loop.

    The silent version of this fallback cost users real time: a lambda
    factory quietly serialized a sweep that looked parallel.  The
    warning names the callable and the triggering error so the fix
    (module-level function) is obvious; results are unaffected.
    """
    token = (
        getattr(fn, "__module__", "?"),
        getattr(fn, "__qualname__", repr(fn)),
    )
    if token in _FALLBACK_WARNED:
        return
    _FALLBACK_WARNED.add(token)
    warnings.warn(
        f"parallel_map: process pool unusable for {fn!r} "
        f"({type(exc).__name__}: {exc}); falling back to serial "
        f"execution. Results are identical but nothing runs in "
        f"parallel -- use a module-level (picklable) callable to "
        f"restore pool execution.",
        RuntimeWarning,
        stacklevel=4,
    )


class _SerialFallback(Exception):
    """Internal signal: abandon the pool and re-run the batch serially."""

    def __init__(self, cause: BaseException):
        self.cause = cause


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a pool down hard, hung workers included.

    ``shutdown()`` alone would join workers that will never exit (a hung
    cell sleeps forever), so the supervisor terminates the worker
    processes first.  Reaching into ``_processes`` is unavoidable --
    the executor API offers no kill switch -- and is confined here.
    """
    processes = list((getattr(pool, "_processes", None) or {}).values())
    for proc in processes:
        try:
            proc.terminate()
        except Exception:  # pragma: no cover - already dead
            pass
    for proc in processes:
        try:
            proc.join(timeout=5)
        except Exception:  # pragma: no cover - best effort
            pass
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:  # pragma: no cover - best effort
        pass


def _serial_run(
    fn: Callable[[T], R],
    work: Sequence[T],
    retries: int,
    backoff_base: float,
    telemetry: Optional[Any],
    on_result: Optional[Callable[[int, R], None]],
) -> List[R]:
    """The serial loop, with the same retry contract for retryable
    in-cell faults (deadlines cannot be enforced without a pool)."""
    out: List[R] = []
    for idx, item in enumerate(work):
        attempt = 0
        while True:
            try:
                value = fn(item)
                break
            except RETRYABLE_EXCEPTIONS as exc:
                attempt += 1
                if telemetry is not None:
                    telemetry.emit(
                        "fault.cell_error",
                        index=idx,
                        attempt=attempt,
                        error=f"{type(exc).__name__}: {exc}",
                    )
                if attempt > retries:
                    if telemetry is not None:
                        telemetry.emit(
                            "fault.giveup", index=idx, attempts=attempt,
                            kind="cell_error",
                        )
                    raise CellCrashedError(
                        f"cell {idx} failed after {attempt} attempt(s): {exc}",
                        attempts=attempt,
                    ) from exc
                delay = _backoff_delay(attempt, backoff_base)
                if telemetry is not None:
                    telemetry.emit(
                        "fault.retry", index=idx, attempt=attempt,
                        delay_s=delay,
                    )
                time.sleep(delay)
        out.append(value)
        if on_result is not None:
            on_result(idx, value)
    return out


def _supervised_pool_run(
    fn: Callable[[T], R],
    work: Sequence[T],
    workers: int,
    cell_timeout: Optional[float],
    retries: int,
    backoff_base: float,
    telemetry: Optional[Any],
    on_result: Optional[Callable[[int, R], None]],
) -> List[R]:
    """Run the batch on a supervised pool (see module docstring).

    Raises :class:`_SerialFallback` when the pool machinery itself is
    unusable, :class:`CellTimeoutError` / :class:`CellCrashedError` when
    a cell exhausts its retry budget, and re-raises genuine (non-
    retryable) exceptions from ``fn`` directly.
    """
    n = len(work)
    sentinel = object()
    results: List[Any] = [sentinel] * n
    attempts = [0] * n
    pending: Set[int] = set(range(n))
    generation = 0

    def emit(event: str, **fields: Any) -> None:
        if telemetry is not None:
            telemetry.emit(event, **fields)

    def charge(idx: int, kind: str, error: Optional[str] = None) -> None:
        """Record one burned execution of cell ``idx``; raise on budget
        exhaustion, otherwise announce the coming retry."""
        attempts[idx] += 1
        fields: Dict[str, Any] = {"index": idx, "attempt": attempts[idx]}
        if error is not None:
            fields["error"] = error
        if kind == "timeout":
            fields["timeout_s"] = cell_timeout
        emit(f"fault.{kind}", **fields)
        if attempts[idx] > retries:
            emit("fault.giveup", index=idx, attempts=attempts[idx], kind=kind)
            if kind == "timeout":
                raise CellTimeoutError(
                    f"cell {idx} exceeded its {cell_timeout}s deadline on "
                    f"all {attempts[idx]} attempt(s) "
                    f"(retries={retries}; raise --retries/--cell-timeout "
                    f"or run serially)",
                    timeout=cell_timeout or 0.0,
                    attempts=attempts[idx],
                )
            raise CellCrashedError(
                f"cell {idx} failed on all {attempts[idx]} attempt(s) "
                f"({error or kind}); retries={retries}",
                attempts=attempts[idx],
            )
        emit(
            "fault.retry",
            index=idx,
            attempt=attempts[idx],
            delay_s=_backoff_delay(attempts[idx], backoff_base),
        )

    while pending:
        if generation > 0:
            # Deterministic exponential pause before standing the pool
            # back up: the most-burned pending cell sets the delay.
            hottest = max(attempts[i] for i in pending)
            time.sleep(_backoff_delay(max(1, hottest), backoff_base))
        pool = ProcessPoolExecutor(max_workers=workers)
        futures: Dict[Future, int] = {}
        try:
            for i in sorted(pending):
                futures[pool.submit(fn, work[i])] = i
        except BaseException as exc:
            _kill_pool(pool)
            if isinstance(exc, _FALLBACK_EXCEPTIONS):
                raise _SerialFallback(exc) from exc
            raise
        recycle = False
        started: Dict[Future, float] = {}
        try:
            not_done: Set[Future] = set(futures)
            while not_done and not recycle:
                now = time.monotonic()
                for f in not_done:
                    if f not in started and f.running():
                        started[f] = now
                timeout = None
                if cell_timeout is not None:
                    deadlines = [
                        started[f] + cell_timeout
                        for f in not_done
                        if f in started
                    ]
                    timeout = (
                        max(0.0, min(deadlines) - now)
                        if deadlines
                        else cell_timeout
                    )
                done, _ = wait(
                    not_done, timeout=timeout, return_when=FIRST_COMPLETED
                )
                for f in done:
                    not_done.discard(f)
                    idx = futures[f]
                    try:
                        value = f.result()
                    except BrokenProcessPool as exc:
                        # A worker died.  Every incomplete cell in this
                        # pool is charged one attempt -- the executor
                        # cannot say which cell the dead worker was
                        # running, and a pool that keeps dying must
                        # eventually exhaust someone's budget rather
                        # than respawn forever.
                        for j in sorted(pending):
                            if results[j] is sentinel:
                                charge(
                                    j,
                                    "crash",
                                    error=f"{type(exc).__name__}: {exc}",
                                )
                        recycle = True
                        break
                    except RETRYABLE_EXCEPTIONS as exc:
                        charge(
                            idx,
                            "cell_error",
                            error=f"{type(exc).__name__}: {exc}",
                        )
                        # The pool itself is healthy: resubmit in place.
                        time.sleep(
                            _backoff_delay(attempts[idx], backoff_base)
                        )
                        nf = pool.submit(fn, work[idx])
                        futures[nf] = idx
                        not_done.add(nf)
                        continue
                    except _FALLBACK_EXCEPTIONS as exc:
                        # Pool machinery failure (unpicklable fn or
                        # payload surfaces here) -- or a genuine error
                        # from fn of the same type.  The serial loop
                        # distinguishes them for us: it re-raises real
                        # fn errors and simply works otherwise.
                        raise _SerialFallback(exc) from exc
                    results[idx] = value
                    pending.discard(idx)
                    if on_result is not None:
                        on_result(idx, value)
                if recycle or not not_done:
                    break
                if cell_timeout is None or done:
                    continue
                # Nothing completed within the deadline window: charge
                # every running cell past its deadline and recycle.
                now = time.monotonic()
                expired = [
                    f
                    for f in not_done
                    if f in started
                    and f.running()
                    and now - started[f] >= cell_timeout
                ]
                if not expired:
                    continue
                for f in expired:
                    charge(futures[f], "timeout")
                recycle = True
        except _SerialFallback:
            _kill_pool(pool)
            raise
        except BaseException:
            # Budget exhaustion or an unexpected error: never leave a
            # (possibly hung) pool behind.
            _kill_pool(pool)
            raise
        if recycle:
            generation += 1
            _kill_pool(pool)
            emit(
                "pool.respawn",
                generation=generation,
                n_resubmitted=len(pending),
                workers=workers,
            )
        else:
            pool.shutdown(wait=True)
    return results  # type: ignore[return-value]


def parallel_map(
    fn: Callable[[T], R],
    items: Iterable[T],
    max_workers: Optional[int] = None,
    chunksize: int = 1,
    telemetry: Optional[Any] = None,
    *,
    cell_timeout: Optional[float] = None,
    retries: Optional[int] = None,
    on_result: Optional[Callable[[int, R], None]] = None,
) -> List[R]:
    """Map ``fn`` over ``items`` on a supervised process pool.

    Results are returned in input order.  ``fn`` must be a pure function
    of its argument (every cell task in this package is: the cell seed
    travels inside the argument), so the parallel and serial paths are
    interchangeable, the fallback can simply re-run serially, and a
    crashed or timed-out task can be retried bit-identically.

    Serial execution is used when ``max_workers`` resolves to 1, when
    there are fewer than two items, or when the pool cannot be used at
    all (no OS support, unpicklable ``fn``/items -- e.g. lambda
    factories); the last case emits a one-time :class:`RuntimeWarning`
    naming the callable.  Genuine exceptions raised by ``fn`` itself
    always propagate, re-raised from the serial loop if the pool attempt
    was the one that surfaced them ambiguously.

    Parameters
    ----------
    cell_timeout:
        Per-task deadline in seconds (default: ``REPRO_CELL_TIMEOUT``,
        else none).  A task running past it is declared hung; the pool
        is torn down (terminating the hung worker) and the task retried.
        Unenforceable on the serial path.
    retries:
        How many times a crashed / hung / retryable-faulted task may be
        re-run (default: ``REPRO_RETRIES``, else 2).  Exhaustion raises
        :class:`~repro.errors.CellTimeoutError` or
        :class:`~repro.errors.CellCrashedError`.
    on_result:
        ``on_result(index, result)``, called in the parent as each task
        completes (completion order, not input order).  Sweeps use it to
        checkpoint finished cells into the cache immediately.  Must be
        idempotent per index: the serial fallback re-runs the whole
        batch and fires it again.
    chunksize:
        Accepted for backward compatibility; the supervised executor
        tracks every task individually, so batching no longer applies.
    telemetry:
        Optional :class:`repro.obs.Telemetry`.  Records how the batch
        was dispatched (``dispatch.serial`` / ``dispatch.pool`` /
        ``dispatch.fallback``) and every recovery action
        (``fault.timeout``, ``fault.crash``, ``fault.cell_error``,
        ``fault.retry``, ``fault.giveup``, ``pool.respawn``).
    """
    work: Sequence[T] = list(items)
    workers = default_workers() if max_workers is None else int(max_workers)
    if cell_timeout is None:
        cell_timeout = default_cell_timeout()
    if retries is None:
        retries = default_retries()
    backoff_base = default_backoff_base()
    if workers <= 1 or len(work) <= 1:
        if telemetry is not None:
            telemetry.emit("dispatch.serial", n_tasks=len(work))
        return _serial_run(
            fn, work, retries, backoff_base, telemetry, on_result
        )
    try:
        if telemetry is not None:
            telemetry.emit(
                "dispatch.pool",
                n_tasks=len(work),
                workers=workers,
                cell_timeout=cell_timeout,
                retries=retries,
            )
        return _supervised_pool_run(
            fn,
            work,
            workers,
            cell_timeout,
            retries,
            backoff_base,
            telemetry,
            on_result,
        )
    except _SerialFallback as fallback:
        # Pool machinery failed (not necessarily fn itself: pickling
        # errors surface identically).  The serial loop is semantically
        # equivalent and re-raises any genuine error from fn directly,
        # so the fallback is announced only once it has succeeded: a
        # real error from fn must not arrive behind a pool warning.
        exc = fallback.cause
        out = _serial_run(
            fn, work, retries, backoff_base, telemetry, on_result
        )
        _warn_serial_fallback(fn, exc)
        if telemetry is not None:
            telemetry.emit(
                "dispatch.fallback",
                n_tasks=len(work),
                error=f"{type(exc).__name__}: {exc}",
            )
        return out


# ----------------------------------------------------------------------
# Shared-memory instance transport
# ----------------------------------------------------------------------

try:  # pragma: no cover - stdlib since 3.8; guarded for exotic builds
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover
    _shared_memory = None


def shared_memory_available() -> bool:
    """Whether this platform can publish instances via shared memory."""
    return _shared_memory is not None


#: Jobsets rebuilt from attached shared-memory blocks, keyed by block
#: name.  Lives at module level so a pool worker pays the attach +
#: rebuild cost once per instance, not once per task.
_ATTACH_CACHE: Dict[str, Tuple[Any, JobSet]] = {}

#: Flat views of attached shared-memory blocks, keyed by block name.
#: Sibling of ``_ATTACH_CACHE`` for flat-consuming schedulers (those
#: routed to the compiled kernel): the cached :class:`FlatInstance`
#: wraps views straight into the shared block -- no object graph is
#: ever built -- and carries the kernel's derived-table cache across
#: tasks.
_FLAT_ATTACH_CACHE: Dict[str, Tuple[Any, FlatInstance]] = {}

#: Instances published by THIS process (the sweep parent), keyed by
#: block name: ``[flat, jobset or None]``.  The serial fallback path
#: resolves against it directly, avoiding a same-process re-attach; the
#: object view is built on first request only, so a sweep whose
#: schedulers all consume flat instances never builds it.
_PUBLISHED_LOCAL: Dict[str, List[Any]] = {}

#: Attach-cache bound: a sweep references one block per repetition, so
#: a handful is plenty; the bound keeps long-lived workers from pinning
#: every instance they ever saw.
_ATTACH_CACHE_LIMIT = 8

#: Unlink registry: every shared-memory block THIS process has created
#: and not yet unlinked, keyed by block name.  ``SharedInstance``
#: registers on publish and unregisters on close; whatever remains is
#: reclaimed by :func:`reclaim_shared_memory` -- called from sweep
#: ``finally`` blocks and, as a last line, at interpreter exit -- so a
#: sweep killed mid-flight (KeyboardInterrupt in the parent, worker
#: death before attach) cannot pin ``/dev/shm`` segments.
_UNLINK_REGISTRY: Dict[str, Any] = {}


def reclaim_shared_memory(telemetry: Optional[Any] = None) -> List[str]:
    """Close and unlink every still-registered shared-memory block.

    Idempotent and safe to call at any time: blocks already closed by
    their owners are no longer registered.  Returns the names of the
    blocks actually reclaimed and emits one ``shm.reclaim`` telemetry
    event when any were (to the given sink, else the process-default
    one) -- a reclaim firing means some code path dropped a block, and
    that should be visible.
    """
    reclaimed: List[str] = []
    for name in list(_UNLINK_REGISTRY):
        shm = _UNLINK_REGISTRY.pop(name, None)
        if shm is None:
            continue
        try:
            shm.close()
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass
        except Exception:  # pragma: no cover - best-effort cleanup
            pass
        _PUBLISHED_LOCAL.pop(name, None)
        reclaimed.append(name)
    if reclaimed:
        sink = telemetry
        if sink is None:
            try:
                from repro.obs.telemetry import default_telemetry

                sink = default_telemetry()
            except Exception:  # pragma: no cover - interpreter teardown
                sink = None
        if sink is not None:
            try:
                sink.emit("shm.reclaim", blocks=reclaimed)
            except Exception:  # pragma: no cover - closed sink at exit
                pass
    return reclaimed


atexit.register(reclaim_shared_memory)


class SharedInstance:
    """A :class:`FlatInstance` published in a shared-memory block.

    Created by the sweep parent.  ``handle`` is the tiny picklable
    payload tasks carry; :func:`attach_jobset` turns it back into a
    (cached) :class:`JobSet` inside any process.  The parent must keep
    the object alive until every task referencing it has finished, then
    :meth:`close` it (also unlinks the block).  Every created block is
    additionally tracked in the module's unlink registry, so
    :func:`reclaim_shared_memory` sweeps up anything a crashed parent
    left behind.
    """

    def __init__(self, flat: FlatInstance, jobset: Optional[JobSet] = None):
        if _shared_memory is None:  # pragma: no cover - exotic builds
            raise NotImplementedError("shared memory is unavailable")
        self._shm = _shared_memory.SharedMemory(
            create=True, size=max(1, flat.nbytes)
        )
        # Register *before* packing: if packing dies, the reclaim sweep
        # still knows about the block.
        _UNLINK_REGISTRY[self._shm.name] = self._shm
        try:
            from repro.testing.faults import maybe_inject

            maybe_inject("publish")
            meta = pack_into(flat, self._shm.buf)
            meta["shm_name"] = self._shm.name
            self.handle: Dict[str, Any] = meta
            # Parent-side shortcut for the serial path: reuse the
            # parent's instance (and object view, when it has one)
            # instead of re-attaching in-process.
            _PUBLISHED_LOCAL[self._shm.name] = [flat, jobset]
        except BaseException:
            # A failed publish must not leak the freshly created block
            # (it would otherwise pin /dev/shm until interpreter exit).
            self.close()
            raise

    @property
    def jobset(self) -> JobSet:
        """The parent-side object view of the published instance."""
        return _local_jobset(_PUBLISHED_LOCAL[self._shm.name])

    def close(self) -> None:
        """Release and unlink the block (idempotent)."""
        _PUBLISHED_LOCAL.pop(self._shm.name, None)
        _UNLINK_REGISTRY.pop(self._shm.name, None)
        try:
            self._shm.close()
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass

    def __enter__(self) -> "SharedInstance":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _evict_attach_cache() -> None:
    for cache in (_ATTACH_CACHE, _FLAT_ATTACH_CACHE):
        while len(cache) > _ATTACH_CACHE_LIMIT:
            name, (shm, _) = next(iter(cache.items()))
            del cache[name]
            try:
                shm.close()
            except Exception:  # pragma: no cover - best-effort cleanup
                pass


def _local_jobset(entry: List[Any]) -> JobSet:
    """The object view of a ``_PUBLISHED_LOCAL`` entry, built once."""
    if entry[1] is None:
        entry[1] = to_jobset(entry[0])
    return entry[1]


def attach_jobset(handle: Dict[str, Any]) -> JobSet:
    """Resolve a :attr:`SharedInstance.handle` into a :class:`JobSet`.

    Zero-copy on the wire: only the handle dict crosses the process
    boundary; the arrays are read directly out of the shared block.  The
    rebuilt object view is cached per process, so repeated tasks over
    the same instance (every cell of a sweep repetition) share one
    reconstruction.
    """
    name = handle["shm_name"]
    local = _PUBLISHED_LOCAL.get(name)
    if local is not None:  # serial path inside the publishing process
        return _local_jobset(local)
    cached = _ATTACH_CACHE.get(name)
    if cached is not None:
        return cached[1]
    shm = _borrow_shared_block(name)
    flat = unpack_from(shm.buf, handle)
    jobset = to_jobset(flat)
    _ATTACH_CACHE[name] = (shm, jobset)
    _evict_attach_cache()
    return jobset


def _borrow_shared_block(name: str):
    """Attach a parent-owned shared block without claiming ownership.

    Workers only borrow the block; unregister it from the resource
    tracker so worker exit does not try to destroy (or warn about) a
    segment the parent still owns.
    """
    shm = _shared_memory.SharedMemory(name=name)
    try:  # pragma: no cover - tracker internals vary across versions
        from multiprocessing import resource_tracker

        resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:
        pass
    return shm


def attach_flat(handle: Dict[str, Any]) -> FlatInstance:
    """Resolve a :attr:`SharedInstance.handle` into a :class:`FlatInstance`.

    The flat sibling of :func:`attach_jobset`, for schedulers that
    consume CSR state directly (``consumes_flat``): the returned
    instance's arrays are views straight into the shared block, so a
    pool worker never rebuilds the per-job object graph at all.  Cached
    per process like the jobset view, which also keeps the flat
    kernel's derived tables warm across every task over the same
    instance.
    """
    name = handle["shm_name"]
    local = _PUBLISHED_LOCAL.get(name)
    if local is not None:
        # Serial path inside the publishing process: the published
        # instance itself.
        return local[0]
    cached = _FLAT_ATTACH_CACHE.get(name)
    if cached is not None:
        return cached[1]
    shm = _borrow_shared_block(name)
    flat = unpack_from(shm.buf, handle)
    _FLAT_ATTACH_CACHE[name] = (shm, flat)
    _evict_attach_cache()
    return flat
