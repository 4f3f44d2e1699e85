"""Sweep-layer replicate batching: fused cells vs the reference engine.

Every cold sweep cell whose configuration :mod:`repro.sim.dispatch`
routes to the compiled kernel is fused into one
:func:`repro.sim.batch_engine.run_batch` task, at any rep count.  The
contract is *bit-identity*: a fused sweep must produce the same
:class:`SweepResult` -- and byte-identical cache cell files -- as the
same sweep on the reference engine (``REPRO_CEXT=0``).  These tests pin
that at R=1, R=2 and R=5, plus the ``cell_timeout`` exclusion, the
``batch.*`` telemetry, and the figure runner.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.core.work_stealing import (
    WeightedWorkStealingScheduler,
    WorkStealingScheduler,
)
from repro.dag.builders import single_node
from repro.dag.job import jobs_from_dags
from repro.experiments.config import FIG2A, ExperimentScale
from repro.experiments.sweep import _grid_sweep as grid_sweep
from repro.obs.telemetry import Telemetry
from repro.sim import _cext
from repro.sim.rng import make_rng
from tests.conftest import use_reference_engine

#: Fusion only exists where the compiled kernel does.
needs_kernel = pytest.mark.skipif(
    _cext.kernel_unavailable_reason() is not None,
    reason="no compiled kernel on this host: cells never fuse",
)


def tiny_jobset_factory(rep_seed):
    rng = make_rng(rep_seed)
    works = rng.integers(2, 10, size=30)
    arrivals = rng.uniform(0, 60, size=30)
    return jobs_from_dags(
        [single_node(int(w)) for w in works], sorted(arrivals.tolist())
    )


GRID = {"k": [0, 2], "steals_per_tick": [1, 8]}


def run_sweep(cache_dir=None, telemetry=None, **kw):
    return grid_sweep(
        lambda k, steals_per_tick: WorkStealingScheduler(
            k=k, steals_per_tick=steals_per_tick
        ),
        GRID,
        tiny_jobset_factory,
        m=2,
        reps=kw.pop("reps", 5),
        seed=7,
        cache=str(cache_dir) if cache_dir else None,
        telemetry=telemetry,
        **kw,
    )


def cell_file_hashes(cache_dir):
    files = sorted(Path(cache_dir).glob("cells/*.json"))
    assert files, "sweep cache produced no cell files"
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in files}


def assert_same_result(a, b):
    assert [(c.params, c.metrics) for c in a.cells] == [
        (c.params, c.metrics) for c in b.cells
    ]


def batch_events(tel):
    return [e for e in tel.events if e["event"].startswith("batch.")]


def fused_vs_reference(monkeypatch, tmp_path, reps, telemetry=None):
    """The same sweep fused (default) and on the reference engine."""
    fused = run_sweep(
        cache_dir=tmp_path / "fused", telemetry=telemetry, reps=reps
    )
    with monkeypatch.context() as mp:
        use_reference_engine(mp)
        reference = run_sweep(cache_dir=tmp_path / "ref", reps=reps)
    assert_same_result(fused, reference)
    assert cell_file_hashes(tmp_path / "fused") == cell_file_hashes(
        tmp_path / "ref"
    )
    return fused


@needs_kernel
def test_batched_sweep_identical_and_cache_bytes_equal(monkeypatch, tmp_path):
    tel = Telemetry()
    fused_vs_reference(monkeypatch, tmp_path, reps=5, telemetry=tel)

    events = batch_events(tel)
    kinds = [e["event"] for e in events]
    assert kinds.count("batch.start") == 4  # one per fused cell
    assert kinds.count("batch.flush") == 4
    assert kinds[-1] == "batch.done"
    done = events[-1]
    assert done["n_batches"] == 4
    assert done["n_batched_reps"] == 20
    assert done["n_unbatched"] == 0


@needs_kernel
def test_fused_r1_cache_bytes_equal(monkeypatch, tmp_path):
    """One rep per cell still fuses, with byte-identical cache cells."""
    tel = Telemetry()
    fused_vs_reference(monkeypatch, tmp_path, reps=1, telemetry=tel)
    assert batch_events(tel)[-1]["n_batched_reps"] == 4


@needs_kernel
def test_fused_r2_cache_bytes_equal(monkeypatch, tmp_path):
    tel = Telemetry()
    fused_vs_reference(monkeypatch, tmp_path, reps=2, telemetry=tel)
    assert batch_events(tel)[-1]["n_batched_reps"] == 8


def test_disabled_env_emits_no_batch_events(reference_engine):
    """REPRO_CEXT=0 routes every cell to the reference engine, per rep."""
    tel = Telemetry()
    run_sweep(telemetry=tel)
    assert batch_events(tel) == []
    runs = [e for e in tel.events if e["event"] == "cell.run"]
    assert {(e["engine"], e["reason"]) for e in runs} == {
        ("reference", "REPRO_CEXT=0")
    }


@needs_kernel
def test_cell_run_records_the_kernel_route():
    tel = Telemetry()
    run_sweep(telemetry=tel, reps=1)
    runs = [e for e in tel.events if e["event"] == "cell.run"]
    assert len(runs) == 4
    assert {(e["engine"], e["reason"]) for e in runs} == {
        ("cext", "native scope")
    }


def test_cell_timeout_disables_batching():
    tel = Telemetry()
    timed = run_sweep(telemetry=tel, cell_timeout=120.0)
    assert batch_events(tel) == []
    plain = run_sweep()
    assert_same_result(timed, plain)


def test_ineligible_scheduler_runs_per_rep():
    tel = Telemetry()
    sweep = grid_sweep(
        lambda k: WeightedWorkStealingScheduler(k=k),
        {"k": [0, 2]},
        tiny_jobset_factory,
        m=2,
        reps=4,
        seed=7,
        telemetry=tel,
    )
    assert batch_events(tel) == []
    assert len(sweep.cells) == 2
    runs = [e for e in tel.events if e["event"] == "cell.run"]
    assert {e["engine"] for e in runs} == {"reference"}
    assert {e["reason"] for e in runs} == {"admission='weight'"}


def test_resume_from_serial_cache(monkeypatch, tmp_path):
    """A fused sweep resumes cleanly over reference-written cells."""
    with monkeypatch.context() as mp:
        use_reference_engine(mp)
        reference = run_sweep(cache_dir=tmp_path / "c", resume=True)
    fused = run_sweep(cache_dir=tmp_path / "c", resume=True)
    assert_same_result(reference, fused)
    assert fused.n_cold == 0


def test_figure_runner_batched_matches_serial(monkeypatch):
    from repro.experiments.runner import run_figure2_cell

    scale = ExperimentScale(n_jobs=40, reps=4)
    fused = run_figure2_cell(FIG2A, qps=500.0, scale=scale, seed=3)
    with monkeypatch.context() as mp:
        use_reference_engine(mp)
        reference = run_figure2_cell(FIG2A, qps=500.0, scale=scale, seed=3)
    assert fused == reference
