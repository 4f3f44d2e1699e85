"""Tests for the ``python -m repro.experiments`` command line."""

import json

import pytest

from repro.experiments.__main__ import EXIT_MERGE_CONFLICT, main


class TestCli:
    def test_fig2a_smoke(self, capsys):
        rc = main(["fig2a", "--n-jobs", "100", "--reps", "1", "--seed", "1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "fig2a" in out
        assert "steal-16-first" in out
        assert "admit-first" in out

    def test_fig3_smoke(self, capsys):
        rc = main(["fig3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "fig3a" in out and "fig3b" in out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["not-an-experiment"])

    def test_registry_and_dispatch_agree(self):
        """The dispatch table must cover the experiment registry exactly."""
        from repro.experiments.__main__ import DISPATCH
        from repro.experiments.config import EXPERIMENTS

        assert set(DISPATCH) == set(EXPERIMENTS)

    def test_dispatch_runs_cheap_experiments(self):
        from repro.experiments.__main__ import _run_one
        from repro.experiments.config import ExperimentScale

        scale = ExperimentScale(n_jobs=100, reps=1)
        for exp_id in ("fig3", "thm31", "thm71"):
            assert _run_one(exp_id, scale, seed=0)

    def test_unknown_id_in_run_one(self):
        from repro.experiments.__main__ import _run_one
        from repro.experiments.config import ExperimentScale

        with pytest.raises(ValueError, match="unknown experiment"):
            _run_one("nope", ExperimentScale(10, 1), 0)

    def test_invalid_scale_rejected(self):
        with pytest.raises(ValueError):
            main(["fig2a", "--n-jobs", "0"])

    def test_chart_flag(self, capsys):
        rc = main(["thm31", "--chart"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "legend:" in out

    def test_json_dir_flag(self, tmp_path, capsys):
        rc = main(["thm71", "--json-dir", str(tmp_path)])
        assert rc == 0
        import json

        data = json.loads((tmp_path / "thm71.json").read_text())
        assert data["experiment"] == "thm71"
        assert data["x_values"]
        assert set(data["series"])


class TestTelemetryCli:
    @pytest.fixture(autouse=True)
    def _clean_env(self, monkeypatch):
        import repro.obs.telemetry as telemetry_mod
        from repro.obs.telemetry import TELEMETRY_ENV

        monkeypatch.setenv(TELEMETRY_ENV, "")  # registers restore-on-exit
        monkeypatch.setattr(telemetry_mod, "_ENV_TELEMETRY", None)

    def test_telemetry_flag_records_and_command_summarizes(
        self, tmp_path, capsys
    ):
        log = tmp_path / "events.jsonl"
        rc = main([
            "fig2a", "--n-jobs", "60", "--reps", "1", "--jobs", "1",
            "--telemetry", str(log),
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert log.exists()
        assert "telemetry written to" in out

        rc = main(["telemetry", str(log)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "telemetry summary" in out
        assert "cell.run" in out
        assert "audit: ok" in out

    def test_telemetry_command_flags_inconsistent_log(self, tmp_path, capsys):
        import json

        log = tmp_path / "bad.jsonl"
        events = [
            {"event": "sweep.start", "t": 0.0, "n_tasks": 5},
            {"event": "cell.run", "t": 0.1, "wall_s": 0.5, "pid": 1},
        ]
        log.write_text("".join(json.dumps(e) + "\n" for e in events))
        rc = main(["telemetry", str(log)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "problem" in out

    def test_telemetry_command_requires_log(self):
        with pytest.raises(SystemExit):
            main(["telemetry"])

    def test_telemetry_command_missing_file(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["telemetry", str(tmp_path / "nope.jsonl")])

    def test_cache_dir_without_resume_rejected(self, tmp_path, capsys):
        """--cache-dir alone used to be ignored silently; now exit 2."""
        with pytest.raises(SystemExit) as info:
            main(["fig2a", "--n-jobs", "20", "--reps", "1",
                  "--cache-dir", str(tmp_path / "cache")])
        assert info.value.code == 2
        assert "--resume" in capsys.readouterr().err
        assert not (tmp_path / "cache").exists()

    def test_cache_dir_with_resume_caches_cells(self, tmp_path, monkeypatch):
        cache = tmp_path / "cache"
        # main() routes both flags through the environment; registering
        # them here makes monkeypatch restore the suite's values after.
        monkeypatch.setenv("REPRO_CACHE", str(cache))
        monkeypatch.setenv("REPRO_RESUME", "0")
        monkeypatch.setenv("REPRO_JOBS", "1")
        args = ["fig2a", "--n-jobs", "20", "--reps", "1",
                "--cache-dir", str(cache), "--resume"]
        assert main(args) == 0
        assert list(cache.glob("cells/*.json"))

    def test_log_path_rejected_for_experiments(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["fig3", str(tmp_path / "events.jsonl")])


class TestMaintenanceCli:
    """merge-cache / merge-telemetry / clean-cache (ISSUE 8)."""

    @staticmethod
    def _shard_caches(tmp_path, n=2):
        from repro.core.work_stealing import WorkStealingScheduler
        from repro.experiments.sweep import _grid_sweep as grid_sweep
        from repro.workloads.distributions import ExponentialDistribution
        from repro.workloads.generator import WorkloadSpec

        spec = WorkloadSpec(
            distribution=ExponentialDistribution(mean_ms=4.0),
            qps=300.0,
            n_jobs=10,
            m=4,
        )
        for i in range(n):
            grid_sweep(
                WorkStealingScheduler, {"k": [0, 2]}, spec,
                m=4, reps=1, seed=5, max_workers=1,
                cache=tmp_path / f"s{i}", shard=(i, n),
            )
        return [tmp_path / f"s{i}" for i in range(n)]

    def test_merge_cache_happy_path(self, tmp_path, capsys):
        s0, s1 = self._shard_caches(tmp_path)
        rc = main([
            "merge-cache", str(s0), str(s1),
            "--dest", str(tmp_path / "merged"),
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "merge-cache report" in out
        assert "cells added" in out
        assert (tmp_path / "merged" / "cells").is_dir()

    def test_merge_cache_conflict_exits_2_with_provenance(
        self, tmp_path, capsys
    ):
        s0, s1 = self._shard_caches(tmp_path)
        main(["merge-cache", str(s0), "--dest", str(tmp_path / "merged")])
        capsys.readouterr()
        victim = sorted((s0 / "cells").glob("*.json"))[0]
        data = json.loads(victim.read_text())
        metric = next(iter(data["metrics"]))
        data["metrics"][metric] += 1.0
        victim.write_text(json.dumps(data))

        rc = main(["merge-cache", str(s0), "--dest", str(tmp_path / "merged")])
        err = capsys.readouterr().err
        assert rc == EXIT_MERGE_CONFLICT
        assert "merge conflict" in err
        assert "shard 0/2" in err  # provenance from the shard manifest

    def test_merge_cache_usage_errors_exit_via_parser(self, tmp_path):
        with pytest.raises(SystemExit):
            main([
                "merge-cache", str(tmp_path / "missing"),
                "--dest", str(tmp_path / "merged"),
            ])
        with pytest.raises(SystemExit):  # --dest is required
            main(["merge-cache", str(tmp_path)])

    def test_merge_telemetry_happy_path(self, tmp_path, capsys):
        from repro.obs import Telemetry, read_events

        logs = []
        for i in range(2):
            log = tmp_path / f"s{i}.jsonl"
            with Telemetry(log, label=f"shard-{i}") as tel:
                tel.emit("cell.run", rep=0)
            logs.append(log)
        merged = tmp_path / "merged.jsonl"
        rc = main([
            "merge-telemetry", str(logs[0]), str(logs[1]),
            "--dest", str(merged),
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "merged" in out and "2 log(s)" in out
        events = read_events(merged)
        assert [e["label"] for e in events if e["event"] == "telemetry.open"] \
            == ["shard-0", "shard-1"]

    def test_merge_telemetry_missing_source_exits(self, tmp_path):
        with pytest.raises(SystemExit):
            main([
                "merge-telemetry", str(tmp_path / "nope.jsonl"),
                "--dest", str(tmp_path / "merged.jsonl"),
            ])

    def test_clean_cache_removes_everything(self, tmp_path, capsys):
        from repro.experiments.cache import SweepCache

        root = tmp_path / "cache"
        cache = SweepCache(root)
        cache.store_cell("abc", {"max_flow": 1.0})
        cache.manifests_dir.mkdir(parents=True, exist_ok=True)
        (cache.manifests_dir / "shard-x-0of2.json").write_text("{}")

        rc = main(["clean-cache", "--cache-dir", str(root)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "cleared" in out
        assert "1 cells" in out and "1 manifests" in out
        assert not root.exists()

    def test_clean_cache_resolves_the_env_default(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.experiments.cache import CACHE_ENV, SweepCache

        root = tmp_path / "env_cache"
        SweepCache(root).store_cell("abc", {"max_flow": 1.0})
        monkeypatch.setenv(CACHE_ENV, str(root))
        rc = main(["clean-cache"])
        out = capsys.readouterr().out
        assert rc == 0
        assert str(root) in out
        assert not root.exists()
