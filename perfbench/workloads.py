"""The benchmark's three workloads, each driving one public entry point.

Every workload is built from a size table (``full`` for the benchmark,
``tiny`` for its own tests) and a seed.  :meth:`Workload.prepare` is the
set-up the ``setup_s`` metric times: it imports the entry point and
constructs the workload specs, up to the first simulation.
:meth:`Workload.run` performs one iteration and returns an
:class:`Outcome` whose ``outputs`` are the simulated results (digested
by the caller) and whose ``problems`` list every invariant that failed.
A check that costs more than reading the result is deferred to
``Outcome.verify``, which the caller runs after the iteration's timing.

Invariants checked here hold for any seed:

* ``fig2-r1``: OPT's max flow is at most every work-stealing max flow in
  every cell, and every value is finite;
* ``search-halving``: the planned cold/cached split holds, and the
  incumbent is the argmin of the last round's candidates, re-read from
  the cache by one single-cell sweep shard per candidate;
* ``stream-window``: every job is admitted, the window compacts, and the
  live window stays below the stream length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

#: Jobs per simulation and run shape, per size.  ``full`` is what the
#: benchmark measures; ``tiny`` keeps the benchmark's tests fast.
SIZES: Dict[str, Dict[str, Dict[str, Any]]] = {
    "fig2-r1": {
        "full": {"n_jobs": 1000},
        "tiny": {"n_jobs": 60},
    },
    "search-halving": {
        "full": {"n_jobs": 300},
        "tiny": {"n_jobs": 40},
    },
    "stream-window": {
        "full": {"n_jobs": 12000, "chunk_jobs": 1024},
        "tiny": {"n_jobs": 600, "chunk_jobs": 128},
    },
}

#: Machine size and steal-cost model of the paper's Figure 2 setting.
M = 16
SIGMA = 64
SEARCH_QPS = 1000.0
SEARCH_SPACE = {
    "k": [0, 1, 2, 4, 8, 16, 32, 64],
    "steals_per_tick": [16, 64],
}
SEARCH_R0 = 2
SEARCH_ETA = 2
STREAM_QPS = 1000.0
#: Every workload runs in this one process, traced or not (so every call
#: is seen).  On a shared 2-core host a 2-worker pool's wall time drifts
#: with the cost of starting processes: over the same six minutes, 36 s
#: windows of serial iterations spread about 40 % less than pooled ones.
MAX_WORKERS = 1
#: Per-layer counts read from :class:`repro.experiments.search.SearchResult`.
SEARCH_COUNTS = (
    "experiments.search.rounds",
    "experiments.search.cold",
    "experiments.search.cached",
)


@dataclass
class Outcome:
    """One iteration's simulated results and invariant violations."""

    sims: int
    sim_jobs: int
    outputs: Any
    problems: List[str] = field(default_factory=list)
    #: layer counts only the public result knows (see SEARCH_COUNTS)
    counts: Dict[str, float] = field(default_factory=dict)
    #: deferred check, run untimed and untraced; returns more problems
    verify: Optional[Callable[[], List[str]]] = None


def _finite(value: float) -> bool:
    return isinstance(value, float) and math.isfinite(value)


class Workload:
    """Base class: a named path through the program's public API."""

    name = ""

    def __init__(self, size: str = "full") -> None:
        self.size = size
        self.params = SIZES[self.name][size]

    def prepare(self) -> None:
        raise NotImplementedError

    def planned_sims(self) -> int:
        """Simulations one iteration runs (the ``attempted`` unit)."""
        raise NotImplementedError

    def run(self, seed: int, scratch: Path) -> Outcome:
        raise NotImplementedError


class Fig2R1(Workload):
    """All three Figure 2 panels at one repetition per point."""

    name = "fig2-r1"

    def prepare(self) -> None:
        from repro.experiments.config import (
            FIG2A,
            FIG2B,
            FIG2C,
            ExperimentScale,
        )
        from repro.experiments.figures import figure2

        self.figure2 = figure2
        self.panels = (FIG2A, FIG2B, FIG2C)
        self.scale = ExperimentScale(n_jobs=self.params["n_jobs"], reps=1)

    def planned_sims(self) -> int:
        # Three panels x three QPS points x {OPT, steal-16-first,
        # admit-first}.
        return 3 * 3 * 3

    def run(self, seed: int, scratch: Path) -> Outcome:
        outputs: Dict[str, Any] = {}
        problems: List[str] = []
        for cfg in self.panels:
            res = self.figure2(
                cfg, self.scale, seed=seed, max_workers=MAX_WORKERS
            )
            outputs[cfg.name] = res.series
            if set(res.series) != {"opt-lb", "steal-16-first", "admit-first"}:
                problems.append(f"{cfg.name}: lineup {sorted(res.series)}")
                continue
            for i, qps in enumerate(res.x_values):
                opt = res.series["opt-lb"][i]
                for name, values in res.series.items():
                    if not _finite(values[i]):
                        problems.append(f"{cfg.name} qps={qps}: {name} not finite")
                    elif values[i] < opt:
                        problems.append(
                            f"{cfg.name} qps={qps}: {name} {values[i]} < OPT {opt}"
                        )
        sims = self.planned_sims()
        return Outcome(sims, sims * self.params["n_jobs"], outputs, problems)


def _halving_plan(n_cells: int, r0: int, eta: int):
    """(cold, cached) (cell, rep) tasks per successive-halving round."""
    # Every survivor of round r was a candidate of round r - 1, so its
    # first r0 * eta**(r - 1) reps are cache reads and the rest run cold.
    plan = []
    survivors = n_cells
    prev_reps = 0
    for rnd in range(max(1, math.ceil(math.log(n_cells, eta)))):
        reps = r0 * eta**rnd
        plan.append((survivors * (reps - prev_reps), survivors * prev_reps))
        prev_reps = reps
        survivors = math.ceil(survivors / eta)
        if survivors == 1:
            break
    return plan


class SearchHalving(Workload):
    """Successive halving over k x steals_per_tick, cold cache."""

    name = "search-halving"

    def prepare(self) -> None:
        import repro
        from repro.workloads.distributions import BingDistribution

        self.search = repro.search
        self.sweep = repro.sweep
        self.scheduler = repro.WorkStealingScheduler(
            k=16, steals_per_tick=SIGMA
        )
        self.spec = repro.WorkloadSpec(
            BingDistribution(),
            qps=SEARCH_QPS,
            n_jobs=self.params["n_jobs"],
            m=M,
        )
        n_cells = math.prod(len(v) for v in SEARCH_SPACE.values())
        self.plan = _halving_plan(n_cells, SEARCH_R0, SEARCH_ETA)

    def planned_sims(self) -> int:
        return sum(cold for cold, _ in self.plan)

    def run(self, seed: int, scratch: Path) -> Outcome:
        res = self.search(
            self.scheduler,
            SEARCH_SPACE,
            self.spec,
            m=M,
            r0=SEARCH_R0,
            eta=SEARCH_ETA,
            seed=seed,
            cache=scratch / "search-cache",
            max_workers=MAX_WORKERS,
        )
        outputs = res.as_dict()
        del outputs["wall_s"]
        problems: List[str] = []
        got = [(r.n_cold, r.n_cached) for r in res.rounds]
        if got != self.plan:
            problems.append(f"rounds (cold, cached) {got}, planned {self.plan}")
        if not all(_finite(v) for v in res.trajectory):
            problems.append(f"trajectory not finite: {res.trajectory}")
        sims = res.n_cold
        counts = dict(
            zip(SEARCH_COUNTS, (len(res.rounds), res.n_cold, res.n_cached))
        )
        return Outcome(
            sims, sims * self.params["n_jobs"], outputs, problems, counts,
            verify=lambda: self._check_incumbent(res, seed, scratch),
        )

    def _check_incumbent(
        self, res: Any, seed: int, scratch: Path
    ) -> List[str]:
        """The incumbent is the argmin of the last round's candidates.

        Each candidate is re-read from the search's cache at the last
        round's reps by a sweep shard that holds that one global cell,
        so the cell's run seeds and cache key are the search's own.
        Ranking is by (mean max flow, global index), as the search
        ranks.
        """
        rounds = res.rounds
        candidates = (
            rounds[-2].survivors if len(rounds) > 1 else range(res.n_cells)
        )
        scores = []
        for index in candidates:
            cell = self.sweep(
                self.scheduler,
                SEARCH_SPACE,
                self.spec,
                m=M,
                reps=rounds[-1].reps,
                seed=seed,
                metrics=("max_flow",),
                cache=scratch / "search-cache",
                resume=True,
                shard=(index, res.n_cells),
                max_workers=MAX_WORKERS,
            )
            if cell.n_cold:
                return [f"cell {index}: {cell.n_cold} reps not in the cache"]
            (only,) = cell.cells
            scores.append((only.metrics["max_flow"], index, only))
        value, index, cell = min(scores, key=lambda s: s[:2])
        if (index, cell.params, value) != (
            res.best_index, res.best.params, res.best.metrics["max_flow"]
        ):
            return [
                f"incumbent {res.best_index} {res.best.params} is not the "
                f"argmin {index} {cell.params} ({value}) of the last round"
            ]
        return []


class StreamWindow(Workload):
    """One bounded-memory streaming run whose window retires and compacts."""

    name = "stream-window"

    def prepare(self) -> None:
        import repro
        import repro.sim.stream_engine  # noqa: F401 - the engine behind stream=
        from repro.workloads.distributions import BingDistribution

        self.run_api = repro.run
        spec = repro.WorkloadSpec(
            BingDistribution(),
            qps=STREAM_QPS,
            n_jobs=self.params["n_jobs"],
            m=M,
        )
        self.stream = spec.stream(chunk_jobs=self.params["chunk_jobs"])

    def planned_sims(self) -> int:
        return 1

    def run(self, seed: int, scratch: Path) -> Outcome:
        res = self.run_api(
            "flat", stream=self.stream, m=M, k=16, steals_per_tick=SIGMA,
            seed=seed,
        )
        outputs = res.summary()
        n = self.params["n_jobs"]
        problems: List[str] = []
        if res.n_jobs != n or res.stats.admissions != n:
            problems.append(
                f"{res.stats.admissions} of {n} jobs admitted "
                f"(n_jobs={res.n_jobs})"
            )
        if res.segments_generated != self.stream.n_chunks:
            problems.append(
                f"{res.segments_generated} segments, "
                f"expected {self.stream.n_chunks}"
            )
        if res.compactions < 1 or res.peak_live_jobs >= n:
            problems.append(
                f"window did not retire: {res.compactions} compactions, "
                f"peak {res.peak_live_jobs} live of {n}"
            )
        job = res.argmax_job
        if not _finite(res.max_flow) or job is None or not 0 <= job < n:
            problems.append(
                f"max_flow {res.max_flow} at job {res.argmax_job}"
            )
        return Outcome(1, n, outputs, problems)


WORKLOADS = {
    cls.name: cls for cls in (Fig2R1, SearchHalving, StreamWindow)
}
