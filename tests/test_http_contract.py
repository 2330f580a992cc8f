"""The HTTP contract of ``efes serve``.

A :class:`~repro.service.JobScheduler` behind ``make_server`` answers
every row here.  A refused submission must leave nothing behind: no job
on the scheduler.  A client may keep its connection across requests,
whatever they were answered.
"""

from __future__ import annotations

import contextlib
import http.client
import json
import threading
import time
import urllib.error
import urllib.parse
import urllib.request

import pytest

from repro.durability import JobJournal
from repro.resilience import FaultPlan, FaultPoint, injected_faults
from repro.scenarios import scenario_s4_s4
from repro.scenarios.io import save_scenario
from repro.service import (
    JobScheduler,
    ServiceClient,
    SubmitEnvelope,
    make_server,
)
from repro.service.http_api import ServiceHandler

#: Stands for the directory of :func:`unreadable_scenario` in a row.
UNREADABLE = "<unreadable scenario directory>"


@contextlib.contextmanager
def serving(scheduler, accepted=None):
    """Serve ``scheduler`` on an ephemeral port; yields the URL.

    The client address of each connection the server accepts is
    appended to ``accepted``, when given.
    """
    server = make_server(scheduler, port=0)
    if accepted is not None:
        get_request = server.get_request

        def counted():
            request = get_request()
            accepted.append(request[1])
            return request

        server.get_request = counted
    thread = threading.Thread(
        target=lambda: server.serve_forever(poll_interval=0.02), daemon=True
    )
    thread.start()
    try:
        yield server.url
    finally:
        server.shutdown()
        server.server_close()
        scheduler.close(wait=True, timeout=5.0)
        thread.join(timeout=5.0)
    assert not thread.is_alive()


# The one param keeps every row's id in the ``[service-...]`` form.
@pytest.fixture(params=["service"])
def front_end(request):
    """``(url, admitted)``: a live server, and a function listing every
    job its scheduler accepted."""
    scheduler = JobScheduler(workers=1, max_queue=8)
    with serving(scheduler) as url:
        yield url, scheduler.jobs


@pytest.fixture
def unreadable_scenario(tmp_path):
    """A saved scenario directory whose relation file is a directory."""
    directory = save_scenario(scenario_s4_s4(), tmp_path / "unreadable")
    data = directory / "s4" / "publication.csv"
    data.unlink()
    data.mkdir()
    return directory


def exchange(url, method, path, body=None, headers=None):
    """One exchange: ``(status, document, headers)``; ``body`` may be
    raw bytes."""
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
            doc = json.loads(reply.read() or b"{}")
            return reply.status, doc, reply.headers
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read() or b"{}"), exc.headers


def call(url, method, path, body=None, headers=None):
    """One exchange: ``(status, document)``."""
    return exchange(url, method, path, body=body, headers=headers)[:2]


@pytest.mark.parametrize(
    "method, path",
    [
        ("GET", "/no/such/path"),
        ("POST", "/elsewhere"),
        ("DELETE", "/jobs"),
        ("GET", "/jobs/some-id/extra"),
        ("GET", "/slo"),
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
        ({"scenario": UNREADABLE}, {}, "cannot read scenario"),
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
        "unreadable-directory",
    ],
)
def test_bad_submission_is_400_and_admits_nothing(
    front_end, body, headers, message, request
):
    url, admitted = front_end
    if isinstance(body, dict) and body.get("scenario") == UNREADABLE:
        directory = request.getfixturevalue("unreadable_scenario")
        body = {**body, "scenario": str(directory)}
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


def test_closed_scheduler_is_503_without_retry_after():
    scheduler = JobScheduler(workers=1, max_queue=8)
    with serving(scheduler) as url:
        scheduler.close(wait=True, timeout=5.0)
        body = {"scenario": "s4-s4", "kind": "assess"}
        status, doc, headers = exchange(url, "POST", "/jobs", body=body)
    assert status == 503
    assert doc == {"error": "scheduler is shut down"}
    assert "Retry-After" not in headers
    assert scheduler.jobs() == []


def test_journal_append_fault_is_503_and_admits_nothing(tmp_path):
    scheduler = JobScheduler(
        workers=1, max_queue=8, journal=JobJournal(tmp_path / "journal")
    )
    plan = FaultPlan([FaultPoint(site="journal.append", times=1)])
    with serving(scheduler) as url, injected_faults(plan):
        body = {"scenario": "s4-s4", "kind": "assess"}
        status, doc = call(url, "POST", "/jobs", body=body)
        assert status == 503, doc
        assert doc["error"].startswith("journal unavailable: ")
        assert "journal.append" in doc["error"]
        assert scheduler.jobs() == []


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


def test_envelope_body_always_carries_priority():
    bare = SubmitEnvelope(scenario="example")
    assert bare.body()["priority"] == 0
    eager = SubmitEnvelope(scenario="example", priority=7)
    assert eager.body()["priority"] == 7


def test_deadline_header_parses_as_the_timeout():
    envelope = SubmitEnvelope(scenario="s1-s2", deadline=2.5)
    parsed = SubmitEnvelope.from_request(envelope.body(), envelope.headers())
    assert parsed.timeout == pytest.approx(2.5)
    assert parsed.deadline is None


@pytest.mark.parametrize(
    "method, path, body, headers, fault, status, kept",
    [
        ("POST", "/nope", {"scenario": "s4-s4"}, {}, False, 404, True),
        ("DELETE", "/jobs/abc", {"reason": "done"}, {}, False, 404, True),
        (
            "POST",
            "/jobs",
            {"scenario": "s4-s4", "kind": "assess"},
            {},
            True,
            500,
            True,
        ),
        (
            "POST",
            "/jobs",
            {"scenario": "s4-s4", "kind": "assess"},
            {"Content-Length": "12abc"},
            False,
            400,
            False,
        ),
        (
            "POST",
            "/jobs",
            {"scenario": "s4-s4", "kind": "assess"},
            {"Transfer-Encoding": "chunked"},
            False,
            400,
            False,
        ),
    ],
    ids=[
        "unknown-path-with-body",
        "delete-with-body",
        "handler-fault-before-the-body",
        "bad-content-length",
        "chunked-body",
    ],
)
def test_kept_connection_answers_the_next_request(
    front_end, method, path, body, headers, fault, status, kept
):
    """After each row, ``GET /healthz`` on the same connection is a 200
    JSON answer.  A body of known length is read and the socket kept; a
    body whose length is unknown is refused and the socket closed."""
    url, admitted = front_end
    address = urllib.parse.urlsplit(url)
    connection = http.client.HTTPConnection(
        address.hostname, address.port, timeout=30
    )
    plan = FaultPlan([FaultPoint(site="http.handler", times=1)] if fault else [])
    try:
        with injected_faults(plan):
            connection.request(
                method,
                path,
                json.dumps(body).encode("utf-8"),
                {"Content-Type": "application/json", **headers},
                encode_chunked="Transfer-Encoding" in headers,
            )
            reply = connection.getresponse()
            reply.read()
        assert reply.status == status
        socket_after_row = connection.sock
        assert (socket_after_row is not None) is kept
        assert (reply.getheader("Connection") == "close") is not kept
        connection.request("GET", "/healthz")
        health = connection.getresponse()
        assert health.status == 200
        assert health.getheader("Content-Type").startswith("application/json")
        assert json.loads(health.read())["status"] == "ok"
        if kept:
            assert connection.sock is socket_after_row
    finally:
        connection.close()
    assert admitted() == []


def test_one_client_thread_rides_one_connection():
    """Submit, polls, result, status and the Prometheus text: one
    accepted connection."""
    accepted = []
    scheduler = JobScheduler(workers=1, max_queue=8)
    with serving(scheduler, accepted) as url:
        with ServiceClient(url) as client:
            job = client.submit("s4-s4", kind="assess")
            doc = client.result(job["id"], deadline=60, poll_interval=0.01)
            assert doc["scenario"] == "s4-s4"
            assert client.status(job["id"])["state"] == "done"
            assert "repro_" in client.metrics_text()
        assert len(accepted) == 1
        # A closed client opens a fresh connection for its next exchange.
        assert client.healthz()["status"] == "ok"
        client.close()
        assert len(accepted) == 2


def test_threads_sharing_a_client_do_not_wait_for_each_other():
    """Each thread keeps its own connection: one thread's slow exchange
    holds up none of another's."""
    accepted = []
    slow = FaultPoint(
        site="http.handler",
        action="delay",
        delay_seconds=1.5,
        match={"path": "/jobs?state=slow"},
    )
    scheduler = JobScheduler(workers=1, max_queue=8)
    with serving(scheduler, accepted) as url, injected_faults(
        FaultPlan([slow])
    ):
        with ServiceClient(url) as client:
            finished = {}

            def slow_listing():
                assert client.jobs("slow") == []
                finished["slow"] = time.monotonic()

            thread = threading.Thread(target=slow_listing)
            thread.start()
            time.sleep(0.2)
            for _ in range(3):
                assert client.healthz()["status"] == "ok"
            finished["fast"] = time.monotonic()
            thread.join(timeout=30)
            assert not thread.is_alive()
        assert finished["fast"] < finished["slow"]
        assert len(accepted) == 2


def test_idle_connection_is_closed_and_the_submit_sent_again(monkeypatch):
    """Past the idle limit the server hangs up; the client's next submit
    goes out on a fresh connection, with the same Idempotency-Key, and
    no retry."""
    monkeypatch.setattr(ServiceHandler, "timeout", 0.2)
    accepted = []
    scheduler = JobScheduler(workers=1, max_queue=8)
    with serving(scheduler, accepted) as url:
        with ServiceClient(url) as client:
            assert client.healthz()["status"] == "ok"
            time.sleep(1.0)
            job = client.submit("s4-s4", kind="assess")
            assert len(accepted) == 2
            assert [known.id for known in scheduler.jobs()] == [job["id"]]
            assert client.retries_total == 0
