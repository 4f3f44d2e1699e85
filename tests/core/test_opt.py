"""Unit tests for the simulated-OPT lower bound (Section 6)."""

import numpy as np
import pytest

from repro.core.fifo import FifoScheduler
from repro.core.opt import OptLowerBound, opt_lower_bound
from repro.core.work_stealing import WorkStealingScheduler
from repro.dag.builders import chain, fork_join, single_node
from repro.dag.job import jobs_from_dags


class TestAggregateMachineReduction:
    def test_single_job_fully_parallel(self):
        # W=12 on m=4 -> service 3.0 on the aggregate machine.
        js = jobs_from_dags([single_node(12)], [0.0])
        r = opt_lower_bound(js, m=4, use_span_bound=False)
        assert r.completions[0] == pytest.approx(3.0)

    def test_dag_structure_is_ignored_by_aggregate_bound(self):
        # The relaxation only reads W: a fork-join with W=12 gives the
        # same aggregate completion as a single 12-unit node.
        js = jobs_from_dags([fork_join(2, [4, 4], 2)], [0.0])
        r = opt_lower_bound(js, m=4, use_span_bound=False)
        assert r.completions[0] == pytest.approx(3.0)

    def test_queueing_accumulates(self):
        js = jobs_from_dags(
            [single_node(8), single_node(8)], [0.0, 1.0]
        )
        r = opt_lower_bound(js, m=2, use_span_bound=False)
        # services are 4 each: c0 = 4, c1 = max(1, 4) + 4 = 8.
        assert r.completions.tolist() == pytest.approx([4.0, 8.0])

    def test_idle_gap_resets_clock(self):
        js = jobs_from_dags([single_node(4), single_node(4)], [0.0, 100.0])
        r = opt_lower_bound(js, m=2, use_span_bound=False)
        assert r.completions.tolist() == pytest.approx([2.0, 102.0])

    def test_speed_scales_service(self):
        js = jobs_from_dags([single_node(12)], [0.0])
        r = opt_lower_bound(js, m=4, speed=2.0, use_span_bound=False)
        assert r.completions[0] == pytest.approx(1.5)


class TestSpanRefinement:
    def test_span_bound_tightens_sequential_jobs(self):
        # A chain has span == work; the aggregate machine would claim
        # W/m, but no real schedule beats the span.
        js = jobs_from_dags([chain([4, 4])], [0.0])
        loose = opt_lower_bound(js, m=4, use_span_bound=False)
        tight = opt_lower_bound(js, m=4, use_span_bound=True)
        assert loose.completions[0] == pytest.approx(2.0)
        assert tight.completions[0] == pytest.approx(8.0)

    def test_span_bound_no_effect_on_flat_jobs(self):
        js = jobs_from_dags([single_node(1)], [0.0])
        a = opt_lower_bound(js, m=1, use_span_bound=False)
        b = opt_lower_bound(js, m=1, use_span_bound=True)
        assert a.completions[0] == b.completions[0]


class TestSoundness:
    """The master invariant: OPT-lb <= any feasible schedule's max flow."""

    def test_below_fifo(self, medium_random_jobset):
        lb = opt_lower_bound(medium_random_jobset, m=8)
        r = FifoScheduler().run(medium_random_jobset, m=8)
        assert lb.max_flow <= r.max_flow + 1e-9

    @pytest.mark.parametrize("k", [0, 4, 16])
    def test_below_work_stealing(self, medium_random_jobset, k):
        lb = opt_lower_bound(medium_random_jobset, m=8)
        r = WorkStealingScheduler(k=k).run(medium_random_jobset, m=8, seed=3)
        assert lb.max_flow <= r.max_flow + 1e-9

    def test_per_job_lower_bounds_hold(self, medium_random_jobset):
        lb = opt_lower_bound(medium_random_jobset, m=8)
        r = FifoScheduler().run(medium_random_jobset, m=8)
        # Not just the max: the FIFO aggregate relaxation lower-bounds
        # the max flow, not each job's flow; but the span refinement is
        # per-job.  Check the per-job span part only.
        spans = np.asarray(medium_random_jobset.spans, dtype=float)
        assert np.all(r.flows >= spans - 1e-9)


class TestSchedulerWrapper:
    def test_wrapper_marks_clairvoyant(self):
        assert OptLowerBound().clairvoyant

    def test_wrapper_matches_function(self, medium_random_jobset):
        a = OptLowerBound().run(medium_random_jobset, m=8)
        b = opt_lower_bound(medium_random_jobset, m=8)
        assert np.array_equal(a.completions, b.completions)

    def test_invalid_args(self, single_job_set):
        with pytest.raises(ValueError):
            opt_lower_bound(single_job_set, m=0)
        with pytest.raises(ValueError):
            opt_lower_bound(single_job_set, m=1, speed=0.0)


class TestFlatInput:
    """OPT on a FlatInstance equals OPT on its object view exactly."""

    @staticmethod
    def assert_same(a, b):
        assert np.array_equal(a.completions, b.completions)
        assert np.array_equal(a.arrivals, b.arrivals)
        assert np.array_equal(a.weights, b.weights)
        assert a.stats == b.stats
        assert (a.scheduler, a.m, a.speed) == (b.scheduler, b.m, b.speed)

    @pytest.mark.parametrize("use_span_bound", [True, False])
    @pytest.mark.parametrize("speed", [1.0, 1.5])
    def test_workload_instance(self, use_span_bound, speed):
        from repro.dag.flat import to_jobset
        from repro.workloads import BingDistribution, WorkloadSpec

        flat = WorkloadSpec(
            BingDistribution(), qps=1100.0, n_jobs=300, m=8
        ).build_flat(seed=4)
        kwargs = dict(m=8, speed=speed, use_span_bound=use_span_bound)
        self.assert_same(
            opt_lower_bound(flat, **kwargs),
            opt_lower_bound(to_jobset(flat), **kwargs),
        )

    def test_unsorted_arrivals_take_jobset_order(self):
        from repro.dag.flat import FlatInstance, flatten_jobset, to_jobset

        base = flatten_jobset(
            jobs_from_dags(
                [chain([2, 3]), single_node(9), chain([1, 1, 1])],
                [0.0, 1.0, 2.0],
            )
        )
        flat = FlatInstance(
            node_works=base.node_works,
            edge_offsets=base.edge_offsets,
            edge_targets=base.edge_targets,
            job_node_offsets=base.job_node_offsets,
            arrivals=[5.0, 1.0, 1.0],
            weights=[1.0, 2.0, 3.0],
        )
        self.assert_same(
            opt_lower_bound(flat, m=2), opt_lower_bound(to_jobset(flat), m=2)
        )

    def test_wrapper_consumes_flat(self):
        from repro.dag.flat import flatten_jobset

        js = jobs_from_dags([chain([4, 4]), single_node(6)], [0.0, 1.0])
        sched = OptLowerBound()
        assert sched.consumes_flat is True
        self.assert_same(
            sched.run(flatten_jobset(js), m=2), sched.run(js, m=2)
        )
