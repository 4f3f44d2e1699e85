"""Unit tests for the sweep runner (small scales)."""

import pytest

from repro.core.fifo import FifoScheduler
from repro.core.opt import OptLowerBound
from repro.experiments.config import ExperimentScale, FIG2A
from repro.experiments.runner import (
    figure2_schedulers,
    mean_and_spread,
    run_figure2_cell,
    run_schedulers,
)

TINY = ExperimentScale(n_jobs=120, reps=1)


class TestRunSchedulers:
    def test_paired_results(self, medium_random_jobset):
        results = run_schedulers(
            medium_random_jobset,
            [OptLowerBound(), FifoScheduler()],
            m=8,
            seed=0,
        )
        assert set(results) == {"opt-lb", "fifo"}
        assert results["opt-lb"].max_flow <= results["fifo"].max_flow + 1e-9

    def test_adding_scheduler_keeps_others_stable(self, medium_random_jobset):
        from repro.core.work_stealing import WorkStealingScheduler

        a = run_schedulers(
            medium_random_jobset, [WorkStealingScheduler(k=2)], m=8, seed=0
        )
        b = run_schedulers(
            medium_random_jobset,
            [WorkStealingScheduler(k=2), FifoScheduler()],
            m=8,
            seed=0,
        )
        assert a["steal-2-first"].max_flow == b["steal-2-first"].max_flow


    def test_flat_instance_matches_its_object_view(self):
        from repro.core.work_stealing import WorkStealingScheduler
        from repro.dag.flat import to_jobset
        from repro.workloads import BingDistribution, WorkloadSpec

        flat = WorkloadSpec(
            BingDistribution(), qps=900.0, n_jobs=60, m=8
        ).build_flat(seed=2)
        lineup = [OptLowerBound(), WorkStealingScheduler(k=4), FifoScheduler()]
        a = run_schedulers(flat, lineup, m=8, seed=5)
        b = run_schedulers(to_jobset(flat), lineup, m=8, seed=5)
        for name in b:
            assert (a[name].completions == b[name].completions).all()
            assert a[name].stats == b[name].stats


class TestFigure2Cell:
    def test_lineup(self):
        names = [s.name for s in figure2_schedulers(FIG2A)]
        assert names == ["opt-lb", "steal-16-first", "admit-first"]

    def test_lineup_with_fifo(self):
        names = [s.name for s in figure2_schedulers(FIG2A, include_fifo=True)]
        assert "fifo" in names

    def test_cell_values_in_ms_and_ordered(self):
        cell = run_figure2_cell(FIG2A, qps=800.0, scale=TINY, seed=0)
        assert set(cell) == {"opt-lb", "steal-16-first", "admit-first"}
        assert cell["opt-lb"] <= cell["steal-16-first"] + 1e-9
        # sanity on units: single-digit-to-tens of ms at this load
        assert 0.1 < cell["opt-lb"] < 1000.0

    def test_cell_deterministic(self):
        a = run_figure2_cell(FIG2A, qps=800.0, scale=TINY, seed=7)
        b = run_figure2_cell(FIG2A, qps=800.0, scale=TINY, seed=7)
        assert a == b


    def test_cell_run_is_emitted_when_its_cell_finishes(self, monkeypatch):
        # A watcher must see progress: in a serial run each cell's
        # cell.run lands before anything the next cell does.
        from repro.experiments import runner
        from repro.obs import Telemetry

        tel = Telemetry()
        real_task = runner._figure2_cell_task

        def marked_task(task):
            tel.emit("test.cell_start", qps=task[1])
            return real_task(task)

        monkeypatch.setattr(runner, "_figure2_cell_task", marked_task)
        runner._run_figure2_cells(
            FIG2A, FIG2A.qps_values, ExperimentScale(n_jobs=30, reps=1),
            max_workers=1, telemetry=tel,
        )
        order = [
            (e["event"], e.get("qps", (e.get("params") or {}).get("qps")))
            for e in tel.events
            if e["event"] in ("test.cell_start", "cell.run")
        ]
        expected = []
        for qps in FIG2A.qps_values:
            expected += [("test.cell_start", qps), ("cell.run", qps)]
        assert order == expected


class TestMeanAndSpread:
    def test_values(self):
        s = mean_and_spread([1.0, 2.0, 3.0])
        assert s == {"mean": 2.0, "min": 1.0, "max": 3.0}
