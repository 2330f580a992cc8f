"""One HTTP contract, checked on both front ends.

``efes serve`` (a :class:`~repro.service.JobScheduler` behind
``make_server``) and ``efes fleet serve`` (a sim-worker fleet behind
``make_fleet_server``) answer through one request handler, so every row
here must hold on both.  A refused submission must leave nothing behind:
no job on the service, and on the fleet no route and no job on any
worker, because the front end refuses before it contacts one.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.fleet import FleetSupervisor, make_fleet_server
from repro.resilience import FaultPlan, FaultPoint, injected_faults
from repro.service import JobScheduler, SubmitEnvelope, make_server

from .sim.fleet_harness import SimWorkerBackend


@pytest.fixture(params=["service", "fleet"])
def front_end(request, tmp_path):
    """``(url, admitted)``: a live front end, and a function listing
    every job it or any scheduler behind it accepted."""
    if request.param == "service":
        scheduler = JobScheduler(workers=1, max_queue=8)
        server = make_server(scheduler, port=0)

        def admitted():
            return scheduler.jobs()

        def close():
            scheduler.close(wait=True, timeout=5.0)

    else:
        backend = SimWorkerBackend(tmp_path / "fleet")
        supervisor = FleetSupervisor(
            tmp_path / "fleet",
            workers=1,
            backend=backend,
            heartbeat_interval=0.04,
            liveness_deadline=0.5,
            startup_grace=5.0,
        )
        supervisor.start()
        deadline = time.monotonic() + 10.0
        while supervisor.status()["live"] < 1:
            assert time.monotonic() < deadline, supervisor.status()
            time.sleep(0.01)
        server = make_fleet_server(supervisor)

        def admitted():
            return supervisor.routes() + [
                job
                for worker in backend.current.values()
                for job in worker.scheduler.jobs()
            ]

        def close():
            supervisor.close()
            backend.close_all()

    thread = threading.Thread(
        target=lambda: server.serve_forever(poll_interval=0.02), daemon=True
    )
    thread.start()
    try:
        yield server.url, admitted
    finally:
        server.shutdown()
        server.server_close()
        close()
        thread.join(timeout=5.0)
    assert not thread.is_alive()


def call(url, method, path, body=None, headers=None):
    """One exchange: ``(status, document)``; ``body`` may be raw bytes."""
    if body is not None and not isinstance(body, bytes):
        body = json.dumps(body).encode("utf-8")
    request = urllib.request.Request(
        f"{url}{path}",
        data=body,
        method=method,
        headers={"Content-Type": "application/json", **(headers or {})},
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as reply:
            return reply.status, json.loads(reply.read() or b"{}")
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read() or b"{}")


@pytest.mark.parametrize(
    "method, path",
    [
        ("GET", "/no/such/path"),
        ("POST", "/elsewhere"),
        ("DELETE", "/jobs"),
        ("GET", "/jobs/some-id/extra"),
    ],
)
def test_unknown_path_is_404(front_end, method, path):
    url, _ = front_end
    body = {} if method == "POST" else None
    status, doc = call(url, method, path, body=body)
    assert status == 404
    assert "no such resource" in doc["error"]


@pytest.mark.parametrize(
    "method, path",
    [
        ("GET", "/jobs/never-issued"),
        ("GET", "/jobs/never-issued/result"),
        ("DELETE", "/jobs/never-issued"),
    ],
)
def test_unknown_job_is_404(front_end, method, path):
    url, _ = front_end
    status, doc = call(url, method, path)
    assert status == 404
    assert doc["error"] == "unknown job 'never-issued'"


@pytest.mark.parametrize(
    "body, headers, message",
    [
        (b"not json", {}, "not valid JSON"),
        (b"[1, 2]", {}, "must be a JSON object"),
        ({}, {}, "missing required field 'scenario'"),
        ({"scenario": "s1-s2", "kind": "bogus"}, {}, "unknown job kind"),
        ({"scenario": "s1-s2", "quality": "bogus"}, {}, "unknown quality"),
        ({"scenario": "s4-s4", "kind": "assess", "timeout": "5"}, {}, "5"),
        ({"scenario": "s4-s4", "kind": "assess", "timeout": True}, {}, "True"),
        ({"scenario": "s4-s4", "kind": "assess", "timeout": 0}, {}, "> 0"),
        ({"scenario": "s4-s4", "kind": "assess", "timeout": -1}, {}, "> 0"),
        ({"scenario": "s4-s4"}, {"X-Deadline-Ms": "soon"}, "soon"),
        ({"scenario": "s4-s4"}, {"X-Deadline-Ms": "nan"}, "nan"),
        ({"scenario": "s4-s4"}, {"X-Deadline-Ms": "inf"}, "inf"),
        ({"scenario": "s4-s4"}, {"X-Deadline-Ms": "-5"}, "> 0"),
        ({"scenario": "s4-s4", "priority": float("inf")}, {}, "infinity"),
    ],
    ids=[
        "non-json",
        "non-object",
        "missing-scenario",
        "kind",
        "quality",
        "timeout-string",
        "timeout-bool",
        "timeout-zero",
        "timeout-negative",
        "deadline-soon",
        "deadline-nan",
        "deadline-inf",
        "deadline-negative",
        "priority-infinity",
    ],
)
def test_bad_submission_is_400_and_admits_nothing(
    front_end, body, headers, message
):
    url, admitted = front_end
    status, doc = call(url, "POST", "/jobs", body=body, headers=headers)
    assert status == 400, doc
    assert message in doc["error"]
    assert admitted() == []


def test_handler_fault_is_500_then_heals(front_end):
    url, _ = front_end
    plan = FaultPlan([FaultPoint(site="http.handler", times=1)])
    with injected_faults(plan):
        status, doc = call(url, "GET", "/healthz")
        assert status == 500
        assert "internal fault" in doc["error"]
        assert call(url, "GET", "/healthz")[0] == 200


def test_good_submission_still_runs_after_refusals(front_end):
    # The refused timeouts never reach a dispatcher, so the next job
    # settles instead of waiting behind a dead dispatcher thread.
    url, _ = front_end
    for timeout in ("5", True, -1):
        body = {"scenario": "s4-s4", "kind": "assess", "timeout": timeout}
        assert call(url, "POST", "/jobs", body=body)[0] == 400
    status, doc = call(
        url, "POST", "/jobs", body={"scenario": "s4-s4", "kind": "assess"}
    )
    assert status == 202, doc
    job_id = doc["job"]["id"]
    deadline = time.monotonic() + 60.0
    while (answer := call(url, "GET", f"/jobs/{job_id}/result"))[0] == 202:
        assert time.monotonic() < deadline, answer
        time.sleep(0.02)
    assert answer[0] == 200, answer
    assert answer[1]["result"]["scenario"] == "s4-s4"


@pytest.mark.parametrize(
    "envelope",
    [
        SubmitEnvelope(scenario="s1-s2", quality="high_quality"),
        SubmitEnvelope(
            scenario="m1-d2",
            kind="estimate",
            quality="low_effort",
            priority=3,
            timeout=2.5,
            seed=7,
            correlation_id="corr-1",
            idempotency_key="key-1",
        ),
        SubmitEnvelope(scenario="example", kind="assess", idempotency_key="k"),
    ],
)
def test_request_parse_inverts_body_and_headers(envelope):
    parsed = SubmitEnvelope.from_request(envelope.body(), envelope.headers())
    assert parsed == envelope


def test_deadline_header_parses_as_the_timeout():
    envelope = SubmitEnvelope(scenario="s1-s2", deadline=2.5)
    parsed = SubmitEnvelope.from_request(envelope.body(), envelope.headers())
    assert parsed.timeout == pytest.approx(2.5)
    assert parsed.deadline is None
