"""Shared fixtures for the test suite.

Fixtures provide small, hand-checkable instances (exact expected values
are computed in the tests that use them) and medium random instances for
cross-scheduler invariant checks.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.dag.builders import (
    chain,
    diamond,
    fork_join,
    parallel_for,
    single_node,
)
from repro.dag.job import Job, JobSet, jobs_from_dags
from repro.workloads.distributions import BingDistribution
from repro.workloads.generator import WorkloadSpec


@pytest.fixture(scope="session", autouse=True)
def _hermetic_cache(tmp_path_factory):
    """Point the default sweep cache at a session temp dir.

    Sweeps, figures and ablations without an explicit ``cache=`` fall
    back to ``REPRO_CACHE`` and then to ``./.repro_cache``; the suite
    must never write into the working tree.
    """
    previous = os.environ.get("REPRO_CACHE")
    os.environ["REPRO_CACHE"] = str(tmp_path_factory.mktemp("repro_cache"))
    yield
    if previous is None:
        os.environ.pop("REPRO_CACHE", None)
    else:
        os.environ["REPRO_CACHE"] = previous


def use_reference_engine(mp) -> None:
    """Force dispatched runs onto the reference engine, through ``mp``.

    Sets ``REPRO_CEXT=0`` and clears the per-process kernel resolution
    (a ``MonkeyPatch`` restores both), so :mod:`repro.sim.dispatch`
    routes each work-stealing run to
    :func:`repro.sim.engine._run_work_stealing`.
    """
    from repro.sim import _cext

    mp.setenv("REPRO_CEXT", "0")
    mp.setattr(_cext, "_cext_fn", None)
    mp.setattr(_cext, "_cext_resolved", False)
    mp.setattr(_cext, "_cext_error", None)


@pytest.fixture
def reference_engine(monkeypatch):
    """The whole test runs with :func:`use_reference_engine` applied."""
    use_reference_engine(monkeypatch)


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic generator for tests that need randomness."""
    return np.random.default_rng(12345)


@pytest.fixture
def single_job_set() -> JobSet:
    """One 10-unit sequential job arriving at t=0."""
    return jobs_from_dags([single_node(10)], [0.0])


@pytest.fixture
def two_sequential_jobs() -> JobSet:
    """Two sequential jobs (works 4 and 6) arriving at t=0 and t=1."""
    return jobs_from_dags([single_node(4), single_node(6)], [0.0, 1.0])


@pytest.fixture
def small_forkjoin_set() -> JobSet:
    """Three fork-join jobs with staggered arrivals (hand-checkable)."""
    dags = [
        fork_join(1, [2, 2], 1),  # W=6, P=4
        diamond(1),  # W=4, P=3
        chain([3, 3]),  # W=6, P=6
    ]
    return jobs_from_dags(dags, [0.0, 2.0, 4.0])


@pytest.fixture
def medium_random_jobset() -> JobSet:
    """A 150-job Bing-like workload at moderate load on 8 processors."""
    spec = WorkloadSpec(
        BingDistribution(), qps=500.0, n_jobs=150, m=8, target_chunks=8
    )
    return spec.build(seed=99)


@pytest.fixture
def weighted_jobset() -> JobSet:
    """Five sequential jobs with distinct weights, same arrival."""
    dags = [single_node(w) for w in (4, 4, 4, 4, 4)]
    return jobs_from_dags(
        dags, [0.0] * 5, weights=[1.0, 2.0, 5.0, 3.0, 4.0]
    )
