"""Tests for the ``efes`` command-line interface."""

import json
import os
import socket
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.cli import build_parser, main


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


class TestFleetCommands:
    def test_fleet_serve_parser_defaults(self):
        args = build_parser().parse_args(["fleet", "serve"])
        assert args.fleet_command == "serve"
        assert args.fleet_workers == 2
        assert args.fleet_dir == "fleet"
        assert args.heartbeat_interval == 0.5

    def test_fleet_status_against_live_fleet(self, tmp_path, capsys):
        import time

        from repro.fleet import FleetSupervisor, make_fleet_server

        from .sim.fleet_harness import SimWorkerBackend

        backend = SimWorkerBackend(tmp_path / "fleet")
        supervisor = FleetSupervisor(
            tmp_path / "fleet",
            workers=2,
            backend=backend,
            heartbeat_interval=0.04,
            liveness_deadline=0.5,
            startup_grace=5.0,
            restart_dead=False,
        )
        supervisor.start()
        deadline = time.monotonic() + 10.0
        while supervisor.status()["live"] < 2:
            assert time.monotonic() < deadline, supervisor.status()
            time.sleep(0.01)
        server = make_fleet_server(supervisor)
        thread = threading.Thread(
            target=lambda: server.serve_forever(poll_interval=0.02),
            daemon=True,
        )
        thread.start()
        try:
            assert main(["fleet", "status", "--url", server.url]) == 0
            out = capsys.readouterr().out
            assert "2/2 live" in out
            assert "w0" in out and "w1" in out
            assert "health: healthy" in out

            assert (
                main(["fleet", "status", "--url", server.url, "--json"]) == 0
            )
            doc = json.loads(capsys.readouterr().out)
            assert doc["size"] == 2 and doc["live"] == 2

            # Degraded fleet: same table, exit 3 (the slo convention).
            backend.current["w0"].kill9()
            supervisor.failover("w0", reason="test")
            assert main(["fleet", "status", "--url", server.url]) == 3
            out = capsys.readouterr().out
            assert "1/2 live" in out
        finally:
            server.shutdown()
            server.server_close()
            supervisor.close()
            backend.close_all()
            thread.join(timeout=5.0)

    def test_fleet_status_unreachable_fails_cleanly(self, capsys):
        assert (
            main(["fleet", "status", "--url", "http://127.0.0.1:1"]) == 1
        )
        err = capsys.readouterr().err
        assert "cannot fetch fleet status" in err
        assert "Traceback" not in err

    def test_recover_fleet_combined_unsettled_table(self, tmp_path, capsys):
        from repro.durability import JobJournal
        from repro.service import ReportStore

        fleet_dir = tmp_path / "fleet"
        store = ReportStore(directory=fleet_dir / "spool")
        store.put("warm-key", {"kind": "estimate"})

        # w0: a live journal with one settled and one dispatched job.
        w0 = JobJournal(fleet_dir / "workers" / "w0" / "journal")
        w0.append(
            {
                "type": "submitted",
                "job_id": "j-done",
                "scenario": "example",
                "kind": "estimate",
                "idempotency_key": "k-done",
            }
        )
        w0.append({"type": "settled", "job_id": "j-done", "state": "done"})
        w0.append(
            {
                "type": "submitted",
                "job_id": "j-open",
                "scenario": "s1-s2",
                "kind": "estimate",
                "idempotency_key": "k-open",
                "store_key": "warm-key",
            }
        )
        w0.append({"type": "dispatched", "job_id": "j-open"})
        w0.close()
        # w1: a fenced journal (the crashed epoch) with a queued job.
        w1 = JobJournal(fleet_dir / "workers" / "w1" / "journal-fenced-1")
        w1.append(
            {
                "type": "submitted",
                "job_id": "j-lost",
                "scenario": "d1-d2",
                "kind": "assess",
                "idempotency_key": "k-lost",
                "store_key": "cold-key",
            }
        )
        w1.close()

        assert main(["recover", "--fleet", str(fleet_dir)]) == 0
        out = capsys.readouterr().out
        assert "j-open" in out and "j-lost" in out
        assert "j-done" not in out  # settled jobs are not listed
        assert "journal-fenced-1" in out
        assert "dispatched" in out and "queued" in out
        # Store evidence: j-open's result is already spooled, j-lost's
        # is not.
        open_line = next(line for line in out.splitlines() if "j-open" in line)
        lost_line = next(line for line in out.splitlines() if "j-lost" in line)
        assert "yes" in open_line
        assert "no" in lost_line
        # Read-only: no checkpoint segments were written anywhere.
        assert (fleet_dir / "workers" / "w1" / "journal-fenced-1").is_dir()

    def test_recover_fleet_rejects_non_fleet_dir(self, tmp_path, capsys):
        assert main(["recover", "--fleet", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "not a fleet directory" in err
