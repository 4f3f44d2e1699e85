"""Multiprocessor execution substrate.

Two exact simulation engines drive every scheduler in :mod:`repro.core`:

* :func:`~repro.sim.events.run_centralized` -- an event-driven engine for
  centralized preemptive schedulers (FIFO, BWF, the list-scheduling
  baselines).  Processor assignment can only change at job arrivals and
  node completions, so the engine jumps between those events; this is
  exact and far faster than stepping time.

* :func:`~repro.sim.engine.run_work_stealing` -- a discrete-time engine
  for the randomized work-stealing schedulers (admit-first and
  steal-k-first, Section 4 of the paper).  The paper defines one *time
  step* as the time an ``s``-speed processor needs for one unit of work
  and charges one time step per steal attempt; the engine simulates in
  exactly those integer ticks, so runs are bit-reproducible for a given
  seed.

:mod:`repro.sim.flat_engine` is a pure-Python reimplementation of the
tick engine over :class:`~repro.dag.flat.FlatInstance` CSR state --
bit-identical results (the equivalence suite pins it).

The on-demand-compiled C kernel (:mod:`repro.sim._cext`) is the one
fast tick loop.  :mod:`repro.sim.batch_engine`
(:func:`~repro.sim.batch_engine.run_batch`) runs R replicate instances
on it in one block-structured arena -- bit-identical per rep to serial
reference runs (schedules, stats, RNG post-state) -- and
:mod:`repro.sim.dispatch` is the one place that chooses between it and
the reference engine: every eligible work-stealing run goes to the
kernel, everything else to the reference (``REPRO_CEXT=0`` forces it).
:mod:`repro.sim.stream_engine` (``repro.run("flat", stream=...)``)
resumes the kernel over a sliding window of a lazy arrival stream:
bounded memory, online metrics, durable checkpoint/restore
(:mod:`repro.sim.checkpoint`) -- same max flow time, bit for bit.

Shared pieces: :class:`~repro.sim.result.ScheduleResult` (the output of
every engine), :class:`~repro.sim.jobstate.JobExecution` (mutable per-job
execution state), :class:`~repro.sim.deque.WorkStealingDeque`,
:class:`~repro.sim.queue.GlobalAdmissionQueue`, and
:class:`~repro.sim.trace.TraceRecorder` (optional execution tracing with
invariant audits).
"""

from repro.sim.result import (
    ScheduleResult,
    SimulationStats,
    load_result,
    result_from_dict,
    result_to_dict,
    save_result,
)
from repro.sim.rng import derive_seed, make_rng, spawn_rngs
from repro.sim.worker import WorkerArrays
from repro.sim.deque import WorkStealingDeque
from repro.sim.queue import GlobalAdmissionQueue, WeightedAdmissionQueue
from repro.sim.jobstate import JobExecution
from repro.sim.events import run_centralized
from repro.sim.engine import run_work_stealing
from repro.sim.trace import TraceRecorder, TraceInterval, audit_trace
from repro.sim.policies import (
    MaxDequeVictim,
    RoundRobinVictim,
    UniformVictim,
    VictimPolicy,
    make_victim_policy,
)
from repro.sim.checkpoint import (
    latest_checkpoint,
    list_checkpoints,
    load_checkpoint,
    save_checkpoint,
)
from repro.sim.sampling import SystemSample, SystemSampler
from repro.sim.batch_engine import run_batch
from repro.sim.stream_engine import StreamResult
from repro.sim.timeline import job_symbol, render_timeline, worker_utilization

__all__ = [
    "VictimPolicy",
    "UniformVictim",
    "RoundRobinVictim",
    "MaxDequeVictim",
    "make_victim_policy",
    "render_timeline",
    "worker_utilization",
    "job_symbol",
    "SystemSample",
    "SystemSampler",
    "StreamResult",
    "run_batch",
    "save_checkpoint",
    "load_checkpoint",
    "list_checkpoints",
    "latest_checkpoint",
    "ScheduleResult",
    "SimulationStats",
    "result_to_dict",
    "result_from_dict",
    "save_result",
    "load_result",
    "derive_seed",
    "make_rng",
    "spawn_rngs",
    "WorkerArrays",
    "WorkStealingDeque",
    "GlobalAdmissionQueue",
    "WeightedAdmissionQueue",
    "JobExecution",
    "run_centralized",
    "run_work_stealing",
    "TraceRecorder",
    "TraceInterval",
    "audit_trace",
]
