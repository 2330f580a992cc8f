"""Tests for the ``efes`` command-line interface."""

import os
import socket
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.cli import EXIT_DEGRADED, build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_estimate_defaults(self):
        args = build_parser().parse_args(["estimate", "example"])
        assert args.quality == "high"
        assert args.seed == 1

    def test_seed_flag(self):
        args = build_parser().parse_args(["--seed", "7", "list"])
        assert args.seed == 7

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 8765
        assert args.spool is None
        assert args.job_workers == 2

    def test_submit_defaults(self):
        args = build_parser().parse_args(["submit", "s1-s2"])
        assert args.kind == "estimate"
        assert args.quality == "high"
        assert args.url is None

    @pytest.mark.parametrize("backend", ["threads", "auto", "process"])
    def test_removed_backends_are_usage_errors(self, backend, capsys):
        with pytest.raises(SystemExit) as exited:
            main(["--backend", backend, "list"])
        assert exited.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_removed_workers_flag_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exited:
            main(["--workers", "2", "list"])
        assert exited.value.code == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["fleet", "serve"],
            ["fleet", "status"],
            ["recover", "--fleet", "d"],
            ["slo"],
        ],
        ids=["serve", "status", "recover", "slo"],
    )
    def test_removed_commands_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as exited:
            main(argv)
        assert exited.value.code == 2
        assert capsys.readouterr().out == ""


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "example" in out and "s1-s2" in out and "d1-d2" in out

    def test_assess_example(self, capsys):
        assert main(["assess", "example"]) == 0
        out = capsys.readouterr().out
        assert "Mapping complexity report" in out
        assert "503" in out and "102" in out  # Table 3 counts

    def test_estimate_example_high(self, capsys):
        assert main(["estimate", "example", "--quality", "high"]) == 0
        out = capsys.readouterr().out
        assert "Merge values" in out
        assert "Total" in out

    def test_estimate_example_low(self, capsys):
        assert main(["estimate", "example", "--quality", "low"]) == 0
        out = capsys.readouterr().out
        assert "Keep any value" in out

    def test_measure_small_scenario(self, capsys):
        assert main(["measure", "s4-s4", "--quality", "low"]) == 0
        out = capsys.readouterr().out
        assert "write mapping query" in out

    def test_curve_example(self, capsys):
        assert main(["curve", "s4-s4"]) == 0
        out = capsys.readouterr().out
        assert "Cost-benefit curve" in out
        assert "100.0%" in out

    def test_save_then_assess_directory(self, tmp_path, capsys):
        directory = tmp_path / "exported"
        assert main(["save", "s4-s4", str(directory)]) == 0
        assert (directory / "scenario.json").exists()
        assert (directory / "s4" / "schema.sql").exists()
        capsys.readouterr()
        assert main(["assess", str(directory)]) == 0
        out = capsys.readouterr().out
        assert "Mapping complexity report" in out

    def test_unknown_scenario_exits_with_one_line_error(self, capsys):
        for command in ("assess", "estimate"):
            assert main([command, "not-a-scenario"]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.count("\n") == 1
            assert "unknown scenario 'not-a-scenario'" in captured.err
            assert "Traceback" not in captured.err


class TestServiceCommands:
    def test_serve_and_submit_round_trip(self, capsys, monkeypatch):
        from repro.service import JobScheduler, make_server

        scheduler = JobScheduler(workers=1, max_queue=8)
        server = make_server(scheduler, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            monkeypatch.setenv("REPRO_SERVICE_URL", server.url)
            assert main(["submit", "s4-s4", "--quality", "high"]) == 0
            out = capsys.readouterr().out
            assert "estimate for s4-s4" in out
            assert "min across" in out

            assert main(["submit", "s4-s4", "--kind", "assess"]) == 0
            assert "assessed s4-s4" in capsys.readouterr().out
        finally:
            server.shutdown()
            server.server_close()
            scheduler.close(wait=True, timeout=5.0)
            thread.join(timeout=5.0)

    def test_submit_exits_3_on_a_degraded_result(self, capsys, monkeypatch):
        from repro.resilience import FaultPlan, injected_faults
        from repro.service import JobScheduler, make_server

        plan = FaultPlan.from_dict({"points": [
            {"site": "detector", "match": {"name": "values"}, "times": 1},
        ]})
        scheduler = JobScheduler(workers=1, max_queue=8)
        server = make_server(scheduler, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            monkeypatch.setenv("REPRO_SERVICE_URL", server.url)
            with injected_faults(plan):
                code = main(["submit", "s4-s4", "--kind", "assess"])
            assert code == EXIT_DEGRADED
            out = capsys.readouterr().out
            # The table a local run prints, naming the failed module.
            assert "Degraded modules (partial results)" in out
            assert any(
                line.startswith("values ") for line in out.splitlines()
            )
        finally:
            server.shutdown()
            server.server_close()
            scheduler.close(wait=True, timeout=5.0)
            thread.join(timeout=5.0)

    def test_submit_unknown_scenario_fails_cleanly(self, capsys, monkeypatch):
        from repro.service import JobScheduler, make_server

        scheduler = JobScheduler(workers=1)
        server = make_server(scheduler, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            monkeypatch.setenv("REPRO_SERVICE_URL", server.url)
            assert main(["submit", "not-a-scenario"]) == 1
            err = capsys.readouterr().err
            assert "unknown scenario" in err
        finally:
            server.shutdown()
            server.server_close()
            scheduler.close(wait=True, timeout=5.0)
            thread.join(timeout=5.0)


    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf", "soon"])
    def test_serve_refuses_a_bad_job_timeout(self, capsys, value):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["serve", "--job-timeout", value])
        assert excinfo.value.code == 2
        assert "argument --job-timeout" in capsys.readouterr().err
        assert build_parser().parse_args(
            ["serve", "--job-timeout", "2.5"]
        ).job_timeout == 2.5


class TestSigterm:
    def test_terminated_stops_serve_forever(self):
        # The SIGTERM handler raises _Terminated wherever the main thread
        # is, including inside socketserver's request dispatch, which
        # swallows any Exception and keeps serving.
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        from repro.cli import _Terminated

        server = ThreadingHTTPServer(
            ("127.0.0.1", 0), BaseHTTPRequestHandler
        )

        def process_request(request, client_address):
            raise _Terminated()

        server.process_request = process_request
        stopped = threading.Event()

        def serve():
            try:
                server.serve_forever(poll_interval=0.05)
            except _Terminated:
                stopped.set()

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        try:
            socket.create_connection(server.server_address, timeout=5).close()
            assert stopped.wait(timeout=5), "serve_forever kept serving"
        finally:
            if thread.is_alive():
                server.shutdown()
            thread.join(timeout=5)
            server.server_close()
        assert not thread.is_alive()


class TestRecoverCommand:
    @pytest.fixture
    def journal_dir(self, tmp_path, small_example):
        """A journal in which a scheduler settled one job."""
        from repro.durability import JobJournal
        from repro.service import JobScheduler

        directory = tmp_path / "journal"
        scheduler = JobScheduler(workers=1, journal=JobJournal(directory))
        try:
            job = scheduler.submit(small_example, kind="assess")
            assert scheduler.wait(job.id, timeout=60).result is not None
        finally:
            scheduler.close(wait=True, timeout=5.0)
        return directory

    @staticmethod
    def _summary(out):
        return dict(line.split() for line in out.splitlines()[1:])

    def test_dry_run_reports_the_settled_job_and_writes_nothing(
        self, journal_dir, capsys
    ):
        def segments():
            return {p.name: p.read_bytes() for p in journal_dir.iterdir()}

        before = segments()
        assert main(["recover", str(journal_dir), "--dry-run"]) == 0
        summary = self._summary(capsys.readouterr().out)
        assert summary["jobs_seen"] == "1"
        assert summary["settled"] == "1"
        assert segments() == before

    @pytest.fixture
    def spooled_journal(self, tmp_path, small_example):
        """A journal whose one settled job's result is spooled, and the
        spool, which also holds a garbage entry and a stale temp file."""
        from repro.durability import JobJournal
        from repro.service import JobScheduler, ReportStore

        directory, spool = tmp_path / "journal", tmp_path / "spool"
        scheduler = JobScheduler(
            workers=1,
            store=ReportStore(spool),
            journal=JobJournal(directory),
        )
        try:
            job = scheduler.submit(small_example, kind="assess")
            assert scheduler.wait(job.id, timeout=60).result is not None
        finally:
            scheduler.close(wait=True, timeout=5.0)
        (spool / "abc.rec").write_text("garbage")
        (spool / "k.tmp.1.2").write_text("never renamed")
        return directory, spool

    @staticmethod
    def _files(directory):
        return {
            path.relative_to(directory): path.read_bytes()
            for path in directory.rglob("*")
            if path.is_file()
        }

    def test_dry_run_leaves_the_spool_as_it_was(self, spooled_journal, capsys):
        journal_dir, spool = spooled_journal
        before = self._files(spool)
        assert len(before) == 3
        assert main(
            ["recover", str(journal_dir), "--dry-run", "--spool", str(spool)]
        ) == 0
        summary = self._summary(capsys.readouterr().out)
        assert summary["results_lost"] == "0"
        assert self._files(spool) == before

    def test_dry_run_creates_no_missing_spool(self, journal_dir, tmp_path, capsys):
        missing = tmp_path / "no-spool"
        assert main(
            ["recover", str(journal_dir), "--dry-run", "--spool", str(missing)]
        ) == 0
        assert self._summary(capsys.readouterr().out)["results_lost"] == "1"
        assert not missing.exists()

    @pytest.mark.parametrize("entry", ["kept", "damaged", "removed"])
    def test_dry_run_plans_what_recover_does(self, spooled_journal, entry, capsys):
        """The dry run counts an entry only if it decodes, as the store
        a real ``recover`` opens would serve it."""
        journal_dir, spool = spooled_journal
        (result,) = [
            path for path in spool.glob("*.rec") if path.name != "abc.rec"
        ]
        if entry == "damaged":
            result.write_bytes(result.read_bytes()[:-5])
        elif entry == "removed":
            result.unlink()
        args = ["recover", str(journal_dir), "--spool", str(spool)]
        assert main([*args, "--dry-run"]) == 0
        planned = self._summary(capsys.readouterr().out)
        assert main(args) == 0
        done = self._summary(capsys.readouterr().out)
        assert planned["results_lost"] == ("0" if entry == "kept" else "1")
        del planned["compacted_segments"], done["compacted_segments"]
        assert planned == done

    def test_compaction_leaves_one_record(self, journal_dir, capsys):
        assert main(["recover", str(journal_dir)]) == 0
        summary = self._summary(capsys.readouterr().out)
        assert summary["compacted_segments"] == "1"
        assert main(["recover", str(journal_dir), "--dry-run"]) == 0
        assert self._summary(capsys.readouterr().out)["records"] == "1"

    def test_missing_directory_exits_2_with_one_line(self, tmp_path, capsys):
        assert main(["recover", str(tmp_path / "absent")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert "does not exist" in captured.err


class TestMainModule:
    def test_python_dash_m_repro(self):
        repo_root = Path(__file__).resolve().parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = str(repo_root / "src")
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "list"],
            capture_output=True,
            text=True,
            env=env,
            cwd=repo_root,
            timeout=120,
        )
        assert completed.returncode == 0
        assert "example" in completed.stdout
