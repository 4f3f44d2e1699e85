"""Per-job works and spans read straight off the CSR arrays.

:func:`repro.dag.flat.job_works` / :func:`repro.dag.flat.job_spans` are
what OPT reads from a :class:`FlatInstance`; they must equal
``JobSet.works`` / ``JobSet.spans`` exactly (int64) for every instance
shape, including node numberings that are not topological.
"""

import numpy as np
import pytest

from repro.dag.builders import chain, parallel_for, single_node
from repro.dag.flat import FlatInstance, flatten_jobset, job_spans, job_works
from repro.dag.graph import DagValidationError, JobDag
from repro.dag.job import Job, JobSet, jobs_from_dags
from repro.workloads import adversarial_instance
from tests.sim.test_flat_kernel_equivalence import random_instance


def assert_scalars_match(jobset: JobSet) -> None:
    flat = flatten_jobset(jobset)
    works, spans = job_works(flat), job_spans(flat)
    assert works.dtype == np.int64 and spans.dtype == np.int64
    assert works.tolist() == jobset.works
    assert spans.tolist() == jobset.spans


def shuffled(dag: JobDag, rng: np.random.Generator) -> JobDag:
    """The same DAG with its node ids permuted at random."""
    perm = rng.permutation(dag.n_nodes)
    works = [0] * dag.n_nodes
    succs = [()] * dag.n_nodes
    for v in range(dag.n_nodes):
        works[perm[v]] = dag.works[v]
        succs[perm[v]] = tuple(int(perm[u]) for u in dag.successors[v])
    return JobDag(works, succs)


def test_adversarial_instance_with_shared_dags():
    jobset, _ = adversarial_instance(64)
    assert len({id(job.dag) for job in jobset}) == 1
    assert_scalars_match(jobset)


@pytest.mark.parametrize("length", [1, 2, 500, 4000])
def test_long_chains(length):
    dags = [chain([3] * length), chain(list(range(1, 8))), single_node(5)]
    assert_scalars_match(jobs_from_dags(dags, [0.0, 1.0, 2.0]))


def test_reversed_chain_numbering():
    # Node 0 is the sink: every edge points to a smaller id.
    n = 50
    dag = JobDag(list(range(1, n + 1)), [()] + [(v - 1,) for v in range(1, n)])
    assert_scalars_match(jobs_from_dags([dag, chain([2] * 3)], [0.0, 0.5]))


@pytest.mark.parametrize("case_seed", range(12))
def test_random_dags_with_shuffled_node_ids(case_seed):
    rng = np.random.default_rng(900 + case_seed)
    base = random_instance(case_seed, n_jobs=10)
    jobset = JobSet(
        Job(job.job_id, shuffled(job.dag, rng), job.arrival, job.weight)
        for job in base
    )
    assert jobset.spans == base.spans
    assert_scalars_match(jobset)


def test_parallel_for_workload_shapes():
    dags = [parallel_for(body, grain=max(1, body // 4)) for body in (1, 7, 64)]
    assert_scalars_match(jobs_from_dags(dags, [0.0, 0.0, 3.0]))


def test_empty_instance():
    flat = flatten_jobset(JobSet([]))
    assert flat.n_jobs == 0
    assert job_works(flat).tolist() == [] and job_spans(flat).tolist() == []


def test_cycle_is_rejected():
    cyclic = FlatInstance(
        node_works=[1, 1],
        edge_offsets=[0, 1, 2],
        edge_targets=[1, 0],
        job_node_offsets=[0, 2],
        arrivals=[0.0],
        weights=[1.0],
    )
    with pytest.raises(DagValidationError, match="cycle"):
        job_spans(cyclic)


@pytest.mark.parametrize("budget", [1, 5, 40])
def test_small_block_budget_gives_the_same_spans(budget, monkeypatch):
    # Blocks of whole jobs are independent; a job larger than the
    # budget gets a block of its own.
    from repro.dag import flat as flat_mod

    monkeypatch.setattr(flat_mod, "_SPAN_BLOCK_NODES", budget)
    rng = np.random.default_rng(budget)
    base = random_instance(budget, n_jobs=20)
    jobset = JobSet(
        Job(job.job_id, shuffled(job.dag, rng), job.arrival, job.weight)
        for job in base
    )
    assert_scalars_match(jobset)
    assert_scalars_match(
        jobs_from_dags([chain([2] * 60), single_node(1)], [0.0, 1.0])
    )
