"""The one dispatch point for work-stealing runs: C kernel or reference.

Every work-stealing simulation the package runs on a materialized
instance -- :meth:`WorkStealingScheduler.run
<repro.core.work_stealing.WorkStealingScheduler.run>`, ``repro.run``
with an engine name (``"work-stealing"``, ``"flat"``, ``"batch"``), the
sweep's per-rep and fused cell tasks, the figure runners -- goes through
:func:`run_work_stealing` here, which asks :func:`_dispatch` for a route:

* ``"cext"`` -- the compiled arena kernel
  (:func:`repro.sim.batch_engine.run_batch`), at any replicate count,
  a single run included;
* ``"reference"`` -- the pure-Python tick engine
  (:func:`repro.sim.engine._run_work_stealing`), which is also the
  oracle every fast path is tested against and is never dispatched
  itself.

A run is eligible for the kernel when its victims are uniform, steals
take one entry, admission is FIFO, no trace or sampler is attached, the
fast-forwards are on, the instance's arrivals are sorted, and the kernel
resolves on this host (see :mod:`repro.sim._cext`; ``REPRO_CEXT=0``
disables it).  Both engines are bit-identical on every eligible run --
completions, :class:`~repro.sim.result.SimulationStats`, scheduler label
and the ``Generator`` post-state -- so the route never changes a number,
only the wall time.  The route and its reason are reported through
telemetry (``dispatch.slow_path``, and ``engine`` / ``reason`` on
``run.*`` and ``cell.run`` events); they never enter results or cache
cells.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.sim.result import ScheduleResult
from repro.sim.rng import SeedLike

#: Route names.
CEXT = "cext"
REFERENCE = "reference"

#: The reason an eligible run gives for its route.
NATIVE = "native scope"

#: Scheduler attributes that are work-stealing engine knobs.
_KNOBS = ("k", "steals_per_tick", "victim_policy", "steal_half", "admission")

#: The engine arguments :func:`config_reasons` inspects.
_SCOPE_KNOBS = (
    "victim_policy",
    "steal_half",
    "admission",
    "trace",
    "sampler",
    "_fast_forward",
)


def config_reasons(
    victim_policy: str = "uniform",
    steal_half: bool = False,
    admission: str = "fifo",
    trace: Any = None,
    sampler: Any = None,
    _fast_forward: bool = True,
) -> Tuple[str, ...]:
    """The configuration knobs that keep a run off the compiled kernel.

    Only choices a caller can change are listed, in a fixed order; an
    empty tuple means the configuration is inside the kernel's scope.
    """
    reasons = []
    if victim_policy != "uniform":
        reasons.append(f"victim_policy={victim_policy!r}")
    if steal_half:
        reasons.append("steal_half=True")
    if admission != "fifo":
        reasons.append(f"admission={admission!r}")
    if trace is not None:
        reasons.append("trace=<TraceRecorder>")
    if sampler is not None:
        reasons.append("sampler=<SystemSampler>")
    if not _fast_forward:
        reasons.append("_fast_forward=False")
    return tuple(reasons)


def _arrivals_sorted(instance: Any) -> bool:
    """Whether a hand-built FlatInstance keeps its arrivals in order.

    A :class:`~repro.dag.job.JobSet` sorts its jobs on construction; a
    hand-built :class:`~repro.dag.flat.FlatInstance` may not, and then
    only the reference engine (after ``to_jobset`` re-sorts and re-ids
    the jobs) defines the semantics.
    """
    from repro.dag.flat import FlatInstance

    if not isinstance(instance, FlatInstance):
        return True
    arr = instance.arrivals
    return bool(np.all(arr[1:] >= arr[:-1]))


def _route(
    instance: Any = None, **engine_kwargs: Any
) -> Tuple[str, Tuple[str, ...]]:
    """``(engine, reasons)``: :func:`_dispatch` with the reasons unjoined."""
    from repro.sim._cext import kernel_unavailable_reason

    reasons = config_reasons(
        **{k: v for k, v in engine_kwargs.items() if k in _SCOPE_KNOBS}
    )
    if instance is not None and not _arrivals_sorted(instance):
        reasons += ("unsorted arrivals",)
    if not reasons:
        missing = kernel_unavailable_reason()
        if missing is None:
            return CEXT, (NATIVE,)
        reasons = (missing,)
    return REFERENCE, reasons


def _dispatch(instance: Any = None, **engine_kwargs: Any) -> Tuple[str, str]:
    """``(engine, reason)`` for one run: ``"cext"`` or ``"reference"``.

    ``engine_kwargs`` are the run's work-stealing knobs (anything
    :func:`config_reasons` does not name -- ``k``, ``max_ticks``, ... --
    is ignored).  ``instance=None`` asks about the configuration alone.
    """
    engine, reasons = _route(instance, **engine_kwargs)
    return engine, ", ".join(reasons)


def run_work_stealing(
    instance: Any,
    m: int,
    speed: float = 1.0,
    seed: SeedLike = None,
    telemetry: Optional[Any] = None,
    **engine_kwargs: Any,
) -> ScheduleResult:
    """Simulate steal-k-first work stealing on the route of :func:`_dispatch`.

    ``instance`` is a :class:`~repro.dag.job.JobSet` or a
    :class:`~repro.dag.flat.FlatInstance`; ``engine_kwargs`` are the
    knobs of :func:`repro.sim.engine._run_work_stealing` (``k``,
    ``steals_per_tick``, ``victim_policy``, ``steal_half``,
    ``admission``, ``trace``, ``sampler``, ``max_ticks``,
    ``_fast_forward``).  The result is bit-identical to the reference
    engine's on either route.  With ``telemetry``, a reference-routed
    run emits ``dispatch.slow_path`` naming why.
    """
    engine, reasons = _route(instance, **engine_kwargs)
    if telemetry is not None and engine == REFERENCE:
        telemetry.emit(
            "dispatch.slow_path",
            engine=engine,
            reason=", ".join(reasons),
            reasons=list(reasons),
        )
    if engine == CEXT:
        from repro.sim.batch_engine import run_batch

        return run_batch(
            [instance], m, speed=speed, seeds=[seed], **engine_kwargs
        )[0]
    from repro.dag.flat import FlatInstance, to_jobset
    from repro.sim.engine import _run_work_stealing

    if isinstance(instance, FlatInstance):
        instance = to_jobset(instance)
    return _run_work_stealing(
        instance, m, speed=speed, seed=seed, **engine_kwargs
    )


def scheduler_kwargs(scheduler: Any) -> Optional[Dict[str, Any]]:
    """Engine knobs of a scheduler whose ``run`` is :func:`run_work_stealing`.

    That is an unmodified
    :class:`~repro.core.work_stealing.WorkStealingScheduler` (subclasses
    included, as long as they inherit ``run``) or one of ``repro.run``'s
    ``work-stealing`` / ``flat`` / ``batch`` engine adapters.  Returns
    ``None`` for every other scheduler.  Callers combine it with
    :func:`_dispatch` to learn the route without running anything.
    """
    engine = getattr(scheduler, "engine", None)
    if engine in ("work-stealing", "flat", "batch"):
        return dict(getattr(scheduler, "engine_kwargs", None) or {})
    from repro.core.work_stealing import WorkStealingScheduler

    if (
        isinstance(scheduler, WorkStealingScheduler)
        and type(scheduler).run is WorkStealingScheduler.run
    ):
        return {name: getattr(scheduler, name) for name in _KNOBS}
    return None


def scheduler_route(scheduler: Any, instance: Any = None) -> Tuple[str, str]:
    """``(engine, reason)`` for ``scheduler.run(instance, ...)``.

    Schedulers outside the work-stealing family have no compiled kernel
    and always run their own (reference) engine.
    """
    kwargs = scheduler_kwargs(scheduler)
    if kwargs is None:
        return REFERENCE, f"no compiled kernel for {scheduler.name}"
    return _dispatch(instance, **kwargs)
