"""The HTTP contract of ``efes serve``.

A :class:`~repro.service.JobScheduler` behind ``make_server`` answers
every row here.  A refused submission must leave nothing behind: no job
on the scheduler.
"""

from __future__ import annotations

import contextlib
import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.durability import JobJournal
from repro.resilience import FaultPlan, FaultPoint, injected_faults
from repro.scenarios import scenario_s4_s4
from repro.scenarios.io import save_scenario
from repro.service import JobScheduler, SubmitEnvelope, make_server

#: Stands for the directory of :func:`unreadable_scenario` in a row.
UNREADABLE = "<unreadable scenario directory>"


@contextlib.contextmanager
def serving(scheduler):
    """Serve ``scheduler`` on an ephemeral port; yields the URL."""
    server = make_server(scheduler, port=0)
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
