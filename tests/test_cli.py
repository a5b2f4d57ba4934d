"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_describe_defaults(self):
        args = build_parser().parse_args(["describe"])
        assert args.scheme == "write_back"
        assert args.capacity_gib == 16

    def test_simulate_workload_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--workload", "bogus"])

    @pytest.mark.parametrize("command", ["faults", "attack", "experiments"])
    def test_execution_flags_shared(self, command):
        """``--jobs/--resume/--timeout/--retries``, the cache flags and
        ``--batch`` parse identically in every command that runs work."""
        from repro.experiments.runner import build_parser as runner_parser

        def parse(flags):
            if command == "experiments":
                return runner_parser().parse_args(flags)
            return build_parser().parse_args([command, *flags])

        names = (
            "jobs", "resume", "timeout", "retries", "cache_dir",
            "no_result_cache", "cache_stamp", "batch",
        )
        defaults = parse([])
        assert {name: getattr(defaults, name) for name in names} == {
            "jobs": "1", "resume": None, "timeout": None, "retries": 2,
            "cache_dir": None, "no_result_cache": False,
            "cache_stamp": None, "batch": None,
        }
        given = parse(
            [
                "--cache-stamp", "--jobs", "3", "--resume", "ck",
                "--timeout", "1.5", "--retries", "0", "--cache-dir", "store",
                "--no-result-cache", "--batch", "off",
            ]
        )
        assert {name: getattr(given, name) for name in names} == {
            "jobs": "3", "resume": "ck", "timeout": 1.5, "retries": 0,
            "cache_dir": "store", "no_result_cache": True,
            "cache_stamp": "auto", "batch": "off",
        }


class TestDescribe:
    def test_prints_layout(self, capsys):
        assert main(["describe", "--scheme", "agit_plus"]) == 0
        out = capsys.readouterr().out
        assert "agit_plus" in out
        assert "address map" in out
        assert "tree_l0" in out

    def test_asit_infers_sgx_tree(self, capsys):
        assert main(["describe", "--scheme", "asit"]) == 0
        assert "sgx" in capsys.readouterr().out


class TestSimulate:
    def test_runs_and_reports(self, capsys):
        code = main(
            [
                "simulate",
                "--scheme",
                "osiris",
                "--workload",
                "gcc",
                "--length",
                "800",
                "--capacity-gib",
                "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "ns/access" in out
        assert "hit rate" in out


class TestCrashDemo:
    def test_agit_demo_recovers(self, capsys):
        code = main(
            [
                "crash-demo",
                "--scheme",
                "agit_plus",
                "--workload",
                "gcc",
                "--length",
                "800",
                "--capacity-gib",
                "1",
                "--verify",
                "100",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "AGIT recovery" in out
        assert "100/100 lines intact" in out

    def test_unrecoverable_scheme_refused(self, capsys):
        code = main(
            ["crash-demo", "--scheme", "write_back", "--length", "100"]
        )
        assert code == 1
        assert "not recoverable" in capsys.readouterr().out


class TestTraceCommand:
    def test_writes_trace_file(self, tmp_path, capsys):
        output = tmp_path / "gcc.rptr"
        code = main(
            [
                "trace",
                "--workload",
                "gcc",
                "--length",
                "300",
                "--output",
                str(output),
            ]
        )
        assert code == 0
        assert output.exists()
        from repro.traces.io import read_trace

        assert len(read_trace(output)) == 300


class TestExperimentsPassthrough:
    def test_forwards_to_runner(self, capsys):
        assert main(["experiments", "fig05"]) == 0
        assert "Figure 5" in capsys.readouterr().out


_FAULT_ARGS = ["--trials", "8", "--length", "300", "--crash-points", "2"]


class TestFaultsExitCodes:
    def test_protected_scheme_exits_zero(self, capsys):
        assert main(["faults", *_FAULT_ARGS]) == 0

    def test_silent_corruption_exits_three(self, capsys):
        from repro.cli import EXIT_SILENT_CORRUPTION

        code = main(
            ["faults", "--scheme", "write_back", "--trials", "12",
             "--length", "300", "--crash-points", "2"]
        )
        assert code == EXIT_SILENT_CORRUPTION
        assert "silent-corruption" in capsys.readouterr().err

    def test_allow_silent_suppresses_the_failure(self, capsys):
        code = main(
            ["faults", "--scheme", "write_back", "--trials", "12",
             "--length", "300", "--crash-points", "2", "--allow-silent"]
        )
        assert code == 0


class TestFaultsResume:
    def test_resume_artifact_matches_clean_run(self, tmp_path, capsys):
        from repro.sim.checkpoint import load_artifact

        clean = tmp_path / "clean"
        victim = tmp_path / "victim"
        assert main(["faults", *_FAULT_ARGS, "--resume", str(clean)]) == 0

        # First attempt "crashes" after a few trials: keep the journal
        # header plus 3 records and a torn tail.
        assert main(["faults", *_FAULT_ARGS, "--resume", str(victim)]) == 0
        journal = victim / "campaign.jsonl"
        lines = journal.read_bytes().splitlines(keepends=True)
        journal.write_bytes(b"".join(lines[:4]) + b'{"key":"trial:9')

        assert main(["faults", *_FAULT_ARGS, "--resume", str(victim)]) == 0
        assert (clean / "campaign.json").read_bytes() == (
            victim / "campaign.json"
        ).read_bytes()
        payload = load_artifact(
            str(victim / "campaign.json"), kind="fault-campaign"
        )
        assert len(payload["trials"]) == 8


class TestServeCacheSettings:
    """``repro serve`` resolves its result cache like every other
    command: ``--no-result-cache`` beats ``--cache-dir`` and
    ``$REPRO_RESULT_CACHE``."""

    @staticmethod
    def _served_config(monkeypatch, tmp_path, *flags):
        import repro.service

        seen = []

        class RecordingServer:
            port = 0
            generation = 0

            def __init__(self, config):
                seen.append(config)

            async def start(self):
                pass

            def request_stop(self):
                pass

            async def wait_stopped(self):
                pass

        monkeypatch.setattr(repro.service, "JobServer", RecordingServer)
        data_dir = str(tmp_path / "data")
        argv = ["serve", "--data-dir", data_dir, "--port", "0", *flags]
        assert main(argv) == 0
        (config,) = seen
        return config

    def test_no_result_cache_beats_environment(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_RESULT_CACHE", str(tmp_path / "store"))
        monkeypatch.setenv("REPRO_CACHE_STAMP", "rev1")
        config = self._served_config(
            monkeypatch, tmp_path, "--no-result-cache"
        )
        assert config.cache_dir is None
        assert config.cache_stamp is None
        flagged = self._served_config(
            monkeypatch,
            tmp_path,
            "--cache-dir",
            str(tmp_path / "flag"),
            "--no-result-cache",
        )
        assert flagged.cache_dir is None

    def test_environment_fallback(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_RESULT_CACHE", str(tmp_path / "store"))
        monkeypatch.setenv("REPRO_CACHE_STAMP", "rev1")
        config = self._served_config(monkeypatch, tmp_path)
        assert config.cache_dir == str(tmp_path / "store")
        assert config.cache_stamp == "rev1"
        monkeypatch.delenv("REPRO_RESULT_CACHE")
        monkeypatch.delenv("REPRO_CACHE_STAMP")
        assert self._served_config(monkeypatch, tmp_path).cache_dir is None
