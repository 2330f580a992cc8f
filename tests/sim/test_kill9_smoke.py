"""Real-process crash smoke: ``kill -9`` the service, restart, recover.

The seed matrix (:mod:`tests.sim.test_crash_matrix`) kills simulated
processes at exact append boundaries; this module complements it with
the blunt real thing — SIGKILL an actual ``efes serve`` process mid
workload, restart it over the same journal + spool, and check that
every job the dead process *acknowledged* is visible and settles in the
restarted one.  Also pins the graceful half: SIGTERM drains and exits 0.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import time
import urllib.error
import urllib.request

import pytest

SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _serve(port: int, journal_dir, spool) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "serve",
            "--port",
            str(port),
            "--journal-dir",
            str(journal_dir),
            "--journal-fsync",
            "strict",
            "--spool",
            str(spool),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )


def _wait_healthy(port: int, deadline_seconds: float = 20.0) -> dict:
    deadline = time.monotonic() + deadline_seconds
    while time.monotonic() < deadline:
        try:
            with urllib.request.urlopen(
                f"http://127.0.0.1:{port}/healthz", timeout=1
            ) as response:
                return json.load(response)
        except (urllib.error.URLError, OSError):
            time.sleep(0.1)
    raise AssertionError("service never became healthy")


def _submit(port: int, key: str) -> dict:
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}/jobs",
        data=json.dumps(
            {
                "kind": "estimate",
                "scenario": "example",
                "quality": "high_quality",
            }
        ).encode(),
        headers={
            "Content-Type": "application/json",
            "Idempotency-Key": key,
        },
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        return json.load(response)["job"]


def _job(port: int, job_id: str) -> dict:
    with urllib.request.urlopen(
        f"http://127.0.0.1:{port}/jobs/{job_id}", timeout=5
    ) as response:
        return json.load(response)["job"]


def _wait_settled(port: int, job_id: str, deadline_seconds: float = 30.0):
    deadline = time.monotonic() + deadline_seconds
    while time.monotonic() < deadline:
        job = _job(port, job_id)
        if job["state"] in ("done", "failed", "cancelled"):
            return job
        time.sleep(0.1)
    raise AssertionError(f"job {job_id} never settled")


def _stop(proc: subprocess.Popen) -> str:
    proc.send_signal(signal.SIGTERM)
    try:
        proc.wait(timeout=15)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait(timeout=10)
    return proc.stdout.read()


@pytest.mark.slow
def test_kill9_restart_recovers_acked_jobs(tmp_path):
    journal_dir = tmp_path / "journal"
    spool = tmp_path / "spool"
    port = _free_port()
    proc = _serve(port, journal_dir, spool)
    acked: dict[str, str] = {}
    try:
        _wait_healthy(port)
        for index in range(4):
            key = f"kill9-{index}"
            job = _submit(port, key)
            # The POST returned: the write-ahead record is fsynced.
            acked[key] = job["id"]
    finally:
        proc.kill()  # SIGKILL: no drain, no flush, no goodbye
        proc.wait(timeout=10)
    assert proc.returncode == -signal.SIGKILL
    assert acked, "no job was acknowledged before the kill"

    port2 = _free_port()
    proc2 = _serve(port2, journal_dir, spool)
    try:
        health = _wait_healthy(port2)
        recovery = health.get("recovery")
        assert recovery is not None
        assert recovery["jobs_seen"] >= len(acked)
        for key, job_id in acked.items():
            job = _wait_settled(port2, job_id)
            assert job["state"] == "done", (key, job)
            # Retrying the original submit must dedup onto the same
            # job, not run it a second time.
            again = _submit(port2, key)
            assert again["id"] == job_id
    finally:
        output = _stop(proc2)
    assert proc2.returncode == 0, output
    assert "journal recovery:" in output


@pytest.mark.slow
def test_kill9_restart_keeps_keyed_store_hit(tmp_path):
    """A keyed POST the report store answers is acknowledged done, so
    it must survive a crash like a queued job: its id keeps answering
    and its key keeps deduplicating after a restart."""
    journal_dir = tmp_path / "journal"
    spool = tmp_path / "spool"
    port = _free_port()
    proc = _serve(port, journal_dir, spool)
    try:
        _wait_healthy(port)
        first = _submit(port, "key-a")
        assert _wait_settled(port, first["id"])["state"] == "done"
        hit = _submit(port, "key-b")
        assert hit["from_store"] is True
    finally:
        proc.kill()
        proc.wait(timeout=10)

    port2 = _free_port()
    proc2 = _serve(port2, journal_dir, spool)
    try:
        health = _wait_healthy(port2)
        assert health["recovery"]["jobs_seen"] == 2
        job = _job(port2, hit["id"])
        assert job["state"] == "done" and job["from_store"] is True
        assert _submit(port2, "key-b")["id"] == hit["id"]
    finally:
        output = _stop(proc2)
    assert proc2.returncode == 0, output


@pytest.mark.slow
def test_sigterm_drains_and_exits_zero(tmp_path):
    port = _free_port()
    proc = _serve(port, tmp_path / "journal", tmp_path / "spool")
    try:
        _wait_healthy(port)
        job = _submit(port, "sigterm-drain")
        assert job["id"]
    finally:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=10)
    output = proc.stdout.read()
    assert proc.returncode == 0, output
    assert "received SIGTERM; draining" in output
