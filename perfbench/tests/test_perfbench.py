"""Tiny-size runs of every benchmark workload.

Each test but the last drives ``perfbench/run.py`` exactly as a
benchmark run would, with ``--size tiny``, and asserts that every metric
named in ``BENCHMARK.json`` is printed with its unit and that the output
check passes.  The last runs the search workload in process and checks
that its incumbent check rejects a result whose incumbent is not the
last round's argmin.  Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(root: Path, workload: str, trace: int, seed: int = 0):
    """(process, meta line, result line) of one tiny benchmark run."""
    proc = subprocess.run(
        [
            sys.executable, "perfbench/run.py",
            "--workload", workload, "--seed", str(seed),
            "--seconds", "0", "--trace", str(trace), "--size", "tiny",
        ],
        cwd=root, capture_output=True, text=True, timeout=170,
    )
    if proc.returncode != 0:
        return proc, None, None
    lines = proc.stdout.strip().splitlines()
    return proc, json.loads(lines[-2])["meta"], json.loads(lines[-1])


def copy_benchmark(dest: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")
    shutil.copytree(
        ROOT / "perfbench", dest / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_printed_and_check_passes(workload, trace, section):
    proc, meta, result = bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, meta["problems"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    assert all(
        isinstance(m["value"], float) for m in result["metrics"].values()
    )
    # Run seed 0 times every one of its instances (INSTANCES in
    # measure.py); the traced run measures only the first.
    instances = ["0"] if trace else [str(s) for s in range(8)]
    assert sorted(meta["digests"]["digest"], key=int) == instances


def test_unrecorded_seed_checks_invariants_only():
    proc, meta, result = bench(ROOT, "search-halving", 0, seed=7)
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] is True, meta["problems"]


def test_digest_mismatch_fails_the_run(tmp_path):
    copy_benchmark(tmp_path)
    (tmp_path / "src").symlink_to(ROOT / "src")
    digests = tmp_path / "perfbench" / "digests.json"
    table = json.loads(digests.read_text())
    for key in table:
        if key.startswith("stream-window/tiny/"):
            table[key]["outputs"] = "0" * 64
    digests.write_text(json.dumps(table))
    proc, meta, result = bench(tmp_path, "stream-window", 0)
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] is False
    assert result["failed"] == result["attempted"]
    assert any("stored" in p for p in meta["problems"])


def test_without_the_program_exits_nonzero(tmp_path):
    copy_benchmark(tmp_path)
    proc, _, _ = bench(tmp_path, "fig2-r1", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_search_check_finds_a_wrong_incumbent(tmp_path, monkeypatch):
    for name in [k for k in os.environ if k.startswith("REPRO_")]:
        monkeypatch.delenv(name)
    monkeypatch.setenv("REPRO_CEXT_CACHE", str(ROOT / ".bench_build" / "cext"))
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from workloads import SearchHalving

    work = SearchHalving("tiny")
    work.prepare()
    results = []
    search = work.search
    work.search = lambda *a, **kw: results.append(search(*a, **kw)) or results[-1]
    outcome = work.run(7, tmp_path)
    assert outcome.problems == []
    assert outcome.verify() == []
    (res,) = results
    runner_up = next(
        i for i in res.rounds[-2].survivors if i != res.best_index
    )
    wrong = dataclasses.replace(res, best_index=runner_up)
    assert work._check_incumbent(wrong, 7, tmp_path)
