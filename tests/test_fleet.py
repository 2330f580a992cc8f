"""Unit and integration tests for the supervised worker fleet.

Covers the pieces the chaos matrix (:mod:`tests.sim.test_fleet_chaos`)
exercises only in aggregate: the consistent-hash ring's movement
guarantees, the control-plane wire protocol's damage containment, the
supervisor's failover/fencing/shedding decisions, and the fleet front
end's HTTP contract — all against in-process sim workers, no
subprocesses.
"""

from __future__ import annotations

import json
import socket
import threading
import time

import pytest

from repro.fleet import (
    FleetShedError,
    FleetSupervisor,
    HashRing,
    NoWorkersError,
    make_fleet_server,
)
from repro.fleet.protocol import (
    MessageReader,
    heartbeat_message,
    hello_message,
    send_message,
)
from repro.service import ServiceClient, SubmitEnvelope
from repro.service.client import BackpressureError, ServiceUnavailableError

from .sim.fleet_harness import SimWorkerBackend

HEARTBEAT = 0.04


@pytest.fixture()
def fleet(tmp_path):
    """A live 2-worker sim fleet + front end + client."""
    backend = SimWorkerBackend(tmp_path / "fleet")
    supervisor = FleetSupervisor(
        tmp_path / "fleet",
        workers=2,
        backend=backend,
        heartbeat_interval=HEARTBEAT,
        liveness_deadline=0.5,
        startup_grace=5.0,
        restart_dead=True,
    )
    supervisor.start()
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        if supervisor.status()["live"] == 2:
            break
        time.sleep(0.01)
    else:
        raise AssertionError(f"fleet never came up: {supervisor.status()}")
    server = make_fleet_server(supervisor)
    threading.Thread(
        target=lambda: server.serve_forever(poll_interval=0.02), daemon=True
    ).start()
    client = ServiceClient(server.url, timeout=30.0)
    yield supervisor, backend, server, client
    server.shutdown()
    server.server_close()
    supervisor.close()
    backend.close_all()


# -- hash ring -------------------------------------------------------------


def test_ring_assignment_is_deterministic():
    a = HashRing(["w0", "w1", "w2"])
    b = HashRing(["w2", "w0", "w1"])  # insertion order must not matter
    for index in range(200):
        key = f"key-{index}"
        assert a.assign(key) == b.assign(key)


def test_ring_spreads_keys_roughly_evenly():
    ring = HashRing(["w0", "w1", "w2"])
    counts = {"w0": 0, "w1": 0, "w2": 0}
    for index in range(3000):
        counts[ring.assign(f"key-{index}")] += 1
    for worker, count in counts.items():
        assert 600 < count < 1700, (worker, counts)


def test_ring_removal_moves_only_the_dead_workers_keys():
    ring = HashRing(["w0", "w1", "w2"])
    before = {f"key-{i}": ring.assign(f"key-{i}") for i in range(500)}
    ring.remove("w1")
    for key, owner in before.items():
        after = ring.assign(key)
        if owner == "w1":
            assert after in ("w0", "w2")
        else:
            assert after == owner, key


def test_ring_exclude_walks_to_successor():
    ring = HashRing(["w0", "w1"])
    for index in range(50):
        key = f"key-{index}"
        owner = ring.assign(key)
        other = ring.assign(key, exclude={owner})
        assert other is not None
        assert other != owner


def test_ring_empty_and_all_excluded():
    assert HashRing().assign("anything") is None
    ring = HashRing(["w0"])
    assert ring.assign("key", exclude={"w0"}) is None


# -- wire protocol ---------------------------------------------------------


def _pipe():
    left, right = socket.socketpair()
    return left, right


def test_reader_frames_messages_across_chunks():
    left, right = _pipe()
    try:
        message = heartbeat_message("w0", 1, 7, status={"queue_depth": 3})
        line = (json.dumps(message) + "\n").encode()
        # Dribble the frame in two pieces; the reader must reassemble.
        left.sendall(line[:10])
        reader = MessageReader(right)
        right.settimeout(5.0)
        left.sendall(line[10:])
        decoded = reader.read()
        assert decoded["type"] == "heartbeat"
        assert decoded["seq"] == 7
        assert decoded["status"] == {"queue_depth": 3}
    finally:
        left.close()
        right.close()


def test_reader_drops_malformed_lines_and_resyncs():
    left, right = _pipe()
    try:
        left.sendall(b"this is not json\n")
        left.sendall(b'{"type": "martian"}\n')  # unknown type
        send_message(left, hello_message("w1", 2, 123, 8080))
        reader = MessageReader(right)
        right.settimeout(5.0)
        decoded = reader.read()
        assert decoded["type"] == "hello"
        assert decoded["worker_id"] == "w1"
        assert reader.malformed == 2
    finally:
        left.close()
        right.close()


def test_reader_returns_none_on_eof():
    left, right = _pipe()
    left.close()
    try:
        assert MessageReader(right).read() is None
    finally:
        right.close()


def test_worker_control_socket_has_no_timeout_once_connected(tmp_path):
    """The connect timeout must not stay on the control socket: the
    supervisor sends nothing, so a read that timed out would stop an idle
    worker as if the supervisor had closed the connection."""
    from repro.fleet.worker import FleetWorker

    with socket.create_server(("127.0.0.1", 0)) as listener:
        worker = FleetWorker("w0", 1, tmp_path, listener.getsockname()[1])
        try:
            worker.connect()
            peer, _ = listener.accept()
            with peer:
                peer.settimeout(5.0)
                assert MessageReader(peer).read()["type"] == "hello"
                assert worker._sock.gettimeout() is None
            # Only the supervisor's EOF stops the worker.
            assert worker._stop.wait(5.0)
        finally:
            worker._sock.close()
            worker.server.server_close()
            worker.scheduler.close(wait=True, timeout=5.0)


# -- submit envelopes (satellite: resubmission carries the envelope) -------


def test_envelope_body_always_carries_priority():
    bare = SubmitEnvelope(scenario="example")
    assert bare.body()["priority"] == 0
    eager = SubmitEnvelope(scenario="example", priority=7)
    assert eager.body()["priority"] == 7


def test_envelope_round_trips_through_dict():
    envelope = SubmitEnvelope(
        scenario="s1-s2",
        kind="estimate",
        quality="low",
        priority=3,
        timeout=12.5,
        seed=9,
        correlation_id="corr-1",
        idempotency_key="key-1",
    )
    assert SubmitEnvelope.from_dict(envelope.to_dict()) == envelope


def test_client_resubmit_replays_the_original_envelope():
    """A resubmit after 503 must carry the original priority, not the
    call-site defaults (the regression this satellite fixes)."""
    from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

    captured: list[tuple[dict, str]] = []

    class Capture(BaseHTTPRequestHandler):
        def log_message(self, *args):
            pass

        def do_POST(self):
            length = int(self.headers.get("Content-Length") or 0)
            body = json.loads(self.rfile.read(length))
            captured.append((body, self.headers.get("Idempotency-Key")))
            payload = json.dumps(
                {"job": {"id": "j-1", "state": "queued"}}
            ).encode()
            self.send_response(202)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)

    server = ThreadingHTTPServer(("127.0.0.1", 0), Capture)
    threading.Thread(
        target=lambda: server.serve_forever(poll_interval=0.02), daemon=True
    ).start()
    try:
        client = ServiceClient(f"http://127.0.0.1:{server.server_address[1]}")
        client.submit(
            "example", quality="high", priority=5, idempotency_key="k-prio"
        )
        client.resubmit("k-prio")
        assert len(captured) == 2
        assert captured[0][0] == captured[1][0], "resubmit body diverged"
        assert captured[1][0]["priority"] == 5
        assert captured[0][1] == captured[1][1] == "k-prio"
        with pytest.raises(KeyError):
            client.resubmit("never-seen")
    finally:
        server.shutdown()
        server.server_close()


# -- supervisor + frontend -------------------------------------------------


def test_fleet_runs_jobs_and_reports_health(fleet):
    supervisor, _backend, _server, client = fleet
    job = client.submit("example", quality="high", idempotency_key="basic-1")
    result = client.result(job["id"], deadline=30.0)
    assert result["kind"] == "estimate"
    assert result["scenario"] == "example"

    healthz = client.healthz()
    assert healthz["status"] == "ok"
    assert healthz["fleet"]["size"] == 2
    assert healthz["fleet"]["live"] == 2
    states = {worker["state"] for worker in healthz["workers"]}
    assert states == {"live"}

    status = client._request("GET", "/fleet/status")[1]
    assert status["jobs"]["routed"] >= 1
    assert status["control_port"] == supervisor.control_port


def test_duplicate_idempotency_key_returns_original_route(fleet):
    _supervisor, _backend, _server, client = fleet
    first = client.submit("s1-s2", quality="low", idempotency_key="dup-1")
    second = client.submit("s1-s2", quality="low", idempotency_key="dup-1")
    assert first["id"] == second["id"]


def test_warm_store_serves_across_workers(fleet):
    supervisor, _backend, _server, client = fleet
    first = client.submit("s1-s3", quality="low", idempotency_key="warm-a")
    client.result(first["id"], deadline=30.0)
    # Same content, different key: the supervisor must answer from the
    # shared spool without routing to any worker.
    second = client.submit("s1-s3", quality="low", idempotency_key="warm-b")
    route = supervisor.route_for_key("warm-b")
    assert route is not None
    assert route.settled is not None and route.settled.get("from_store")
    result = client.result(second["id"], deadline=10.0)
    assert result["scenario"] == "s1-s3"


def test_failover_respawns_at_the_next_epoch(fleet):
    supervisor, backend, _server, client = fleet
    job = client.submit("m1-d2", quality="low", idempotency_key="fo-1")
    client.result(job["id"], deadline=30.0)
    summary = supervisor.failover("w0", reason="test")
    assert summary["worker_id"] == "w0"
    assert "skipped" not in summary

    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        status = supervisor.status()
        w0 = next(w for w in status["workers"] if w["worker_id"] == "w0")
        if w0["state"] == "live" and w0["epoch"] == 2:
            break
        time.sleep(0.02)
    else:
        raise AssertionError(f"w0 never respawned: {supervisor.status()}")
    assert supervisor.failovers_total == 1


def test_failover_redispatches_unsettled_jobs_exactly_once(tmp_path):
    backend = SimWorkerBackend(tmp_path / "fleet")
    supervisor = FleetSupervisor(
        tmp_path / "fleet",
        workers=2,
        backend=backend,
        heartbeat_interval=HEARTBEAT,
        liveness_deadline=0.5,
        startup_grace=5.0,
        restart_dead=False,  # keep the survivor set stable for asserts
    )
    supervisor.start()
    deadline = time.monotonic() + 10.0
    while supervisor.status()["live"] < 2:
        assert time.monotonic() < deadline
        time.sleep(0.01)
    server = make_fleet_server(supervisor)
    threading.Thread(
        target=lambda: server.serve_forever(poll_interval=0.02), daemon=True
    ).start()
    client = ServiceClient(server.url, timeout=30.0)
    try:
        acked = {}
        for index in range(6):
            key = f"redis-{index}"
            job = client.submit(
                "example", quality="high", priority=3, idempotency_key=key
            )
            acked[key] = job["id"]
        # Kill whichever worker owns at least one route, before results
        # are polled — some of its jobs are likely still unsettled.
        owners = {
            route.worker_id
            for route in supervisor.routes()
            if route.worker_id is not None
        }
        victim = sorted(owners)[0]
        backend.current[victim].kill9()
        supervisor.failover(victim, reason="test")
        # With restart_dead=False the victim stays dead, so a repeat
        # failover of the same epoch must be a recognised no-op.
        again = supervisor.failover(victim, reason="test")
        assert again.get("skipped") is True
        for key, job_id in acked.items():
            result = client.result(job_id, deadline=30.0)
            assert result["scenario"] == "example", key
        # No route may have settled more than once: every route is
        # either supervisor-settled or terminal on exactly one worker.
        for route in supervisor.routes():
            if route.settled is not None:
                assert route.worker_id is None
    finally:
        server.shutdown()
        server.server_close()
        supervisor.close()
        backend.close_all()


def test_degraded_fleet_sheds_low_priority_with_retry_after(tmp_path):
    backend = SimWorkerBackend(tmp_path / "fleet")
    supervisor = FleetSupervisor(
        tmp_path / "fleet",
        workers=2,
        backend=backend,
        heartbeat_interval=HEARTBEAT,
        liveness_deadline=0.5,
        startup_grace=5.0,
        restart_dead=False,
    )
    supervisor.start()
    deadline = time.monotonic() + 10.0
    while supervisor.status()["live"] < 2:
        assert time.monotonic() < deadline
        time.sleep(0.01)
    server = make_fleet_server(supervisor)
    threading.Thread(
        target=lambda: server.serve_forever(poll_interval=0.02), daemon=True
    ).start()
    client = ServiceClient(server.url, timeout=30.0)
    try:
        backend.current["w0"].kill9()
        supervisor.failover("w0", reason="test")

        # Degraded by one worker: priority 0 is shed with an explicit
        # retry hint; priority >= missing rides through to the survivor.
        with pytest.raises(BackpressureError) as excinfo:
            client.submit("s1-s2", quality="low", idempotency_key="shed-0")
        assert excinfo.value.retry_after > 0

        job = client.submit(
            "s1-s2",
            quality="low",
            priority=1,
            idempotency_key="shed-1",
        )
        result = client.result(job["id"], deadline=30.0)
        assert result["scenario"] == "s1-s2"

        healthz = client.healthz()
        assert healthz["status"] == "degraded"
        assert healthz["health"]["state"] == "fleet-degraded"
        assert healthz["health"]["fleet_degraded"] is True

        # Kill the survivor too: nothing can accept work at any
        # priority — 503 without a body retry_after (not backpressure).
        # A no-retry client, or the default policy would sleep out the
        # Retry-After hint three times before surfacing.
        backend.current["w1"].kill9()
        supervisor.failover("w1", reason="test")
        from repro.resilience import RetryPolicy

        impatient = ServiceClient(
            server.url,
            timeout=30.0,
            retry_policy=RetryPolicy(max_attempts=1),
        )
        # "d1-d2" was never computed, so the warm shared store cannot
        # answer and dispatch must hit the (empty) live set.
        with pytest.raises(ServiceUnavailableError):
            impatient.submit(
                "d1-d2", quality="low", priority=9, idempotency_key="shed-2"
            )
    finally:
        server.shutdown()
        server.server_close()
        supervisor.close()
        backend.close_all()


def test_stale_epoch_hello_is_rejected(fleet):
    supervisor, _backend, _server, _client = fleet
    # A zombie from a fenced epoch dials home: the supervisor must
    # close the connection (the order to die), not re-admit it.
    zombie = socket.create_connection(
        ("127.0.0.1", supervisor.control_port), timeout=5.0
    )
    try:
        send_message(zombie, hello_message("w0", 0, 999, 1))  # epoch 0 < 1
        zombie.settimeout(5.0)
        assert zombie.recv(1) == b"", "stale-epoch zombie was not closed"
    finally:
        zombie.close()


def test_unknown_scenario_and_unknown_job(fleet):
    _supervisor, _backend, _server, client = fleet
    from repro.service.client import ServiceError

    with pytest.raises(ServiceError) as excinfo:
        client.submit("no-such-scenario", idempotency_key="nope")
    assert excinfo.value.status == 404
    with pytest.raises(ServiceError) as status_excinfo:
        client.status("never-issued")
    assert status_excinfo.value.status == 404
    # /jobs/<id>/result for an unknown id is also 404.
    with pytest.raises(ServiceError) as result_excinfo:
        client.result("never-issued", wait=False)
    assert result_excinfo.value.status == 404


def test_front_end_refuses_an_unknown_quality(fleet):
    supervisor, _backend, _server, client = fleet
    from repro.service.client import ServiceError

    with pytest.raises(ServiceError) as excinfo:
        client.submit("s4-s4", quality="bogus", idempotency_key="bad-q")
    assert excinfo.value.status == 400
    assert "high, high_quality, low, low_effort" in str(excinfo.value)
    assert supervisor.route_for_key("bad-q") is None


@pytest.mark.parametrize(
    "quality, value",
    [
        (None, "high_quality"),
        ("high", "high_quality"),
        ("high_quality", "high_quality"),
        ("low", "low_effort"),
        ("low_effort", "low_effort"),
    ],
)
def test_front_end_quality_spellings_keep_their_job_keys(
    fleet, quality, value
):
    supervisor, _backend, _server, client = fleet
    from repro.scenarios import resolve_scenario
    from repro.service import job_key

    key = f"quality-{quality}"
    client.submit("s4-s4", quality=quality, seed=3, idempotency_key=key)
    route = supervisor.route_for_key(key)
    assert route.envelope.quality == value
    expected = job_key(resolve_scenario("s4-s4", 3), "estimate", value)
    assert route.store_key == expected


def test_front_end_resolves_through_one_scenario_cache(fleet, monkeypatch):
    _supervisor, _backend, server, client = fleet
    from repro.scenarios import SCENARIO_BUILDERS, ScenarioCache

    assert isinstance(server.scenarios, ScenarioCache)
    job = client.submit(
        "s4-s4", kind="assess", seed=6, idempotency_key="cache-1"
    )
    client.result(job["id"], deadline=30.0)  # the worker resolves it too

    def refuse(seed):
        raise AssertionError("the scenario should have come from the cache")

    # The POST built seed 6's whole catalogue into the front end's cache.
    for name in SCENARIO_BUILDERS:
        monkeypatch.setitem(SCENARIO_BUILDERS, name, refuse)
    assert list(server.scenarios.catalogue(6)) == list(SCENARIO_BUILDERS)


def test_merged_metrics_labels_workers(fleet):
    supervisor, _backend, _server, client = fleet
    job = client.submit("d1-d2", quality="low", idempotency_key="metrics-1")
    client.result(job["id"], deadline=30.0)
    # Inject a telemetry blob shaped like a worker heartbeat's.
    from repro.runtime import RuntimeMetrics

    worker_metrics = RuntimeMetrics()
    worker_metrics.increment("jobs_submitted", 3)
    with supervisor._lock:
        record = supervisor._records["w0"]
        record.telemetry = {
            "pid": 4242,
            "metrics": worker_metrics.snapshot().to_dict(),
        }
        supervisor._records["w1"].telemetry = {"pid": 1, "metrics": "torn"}
    merged = supervisor.merged_metrics()
    snapshot = merged.snapshot()
    assert snapshot.gauge("fleet_worker_jobs_submitted", worker="w0") == 3.0
    assert snapshot.counter("worker_telemetry_dropped") == 1
    assert snapshot.counter("worker_telemetry_merged") == 1
    # The merged view is also what /metrics serves.
    doc = client.metrics()
    assert "fleet" in doc
    text = client.metrics_text()
    assert "fleet_size" in text
    assert "fleet_live" in text


def test_supervisor_rejects_nonpositive_worker_count(tmp_path):
    with pytest.raises(ValueError):
        FleetSupervisor(tmp_path, workers=0)


def test_no_workers_error_is_503_shape():
    error = NoWorkersError()
    assert error.retry_after > 0
    shed = FleetShedError(priority=0, missing=2, retry_after=7.5)
    assert shed.priority == 0
    assert shed.missing == 2
    assert "priority-0" in str(shed)


# -- failover budget accounting --------------------------------------------


class _Ticker:
    """A hand-advanced supervisor clock for deterministic budget math."""

    def __init__(self, start: float = 100.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now


class _CapturingWorkerClient:
    """Stands in for a ring survivor's HTTP client at re-dispatch."""

    def __init__(self) -> None:
        self.envelopes = []

    def submit_envelope(self, envelope):
        self.envelopes.append(envelope)
        return {"id": f"remote-{len(self.envelopes)}"}


@pytest.fixture()
def budget_supervisor(tmp_path):
    """An unstarted supervisor with an injectable clock (no workers)."""
    ticker = _Ticker()
    supervisor = FleetSupervisor(
        tmp_path / "fleet",
        workers=1,
        backend=SimWorkerBackend(tmp_path / "fleet"),
        clock=ticker,
    )
    yield supervisor, ticker


def _budget_route(timeout, admitted_at, job_id="j1"):
    from repro.fleet.supervisor import JobRoute

    return JobRoute(
        job_id=job_id,
        worker_id="w0",
        remote_id=job_id,
        envelope=SubmitEnvelope(
            scenario="example", timeout=timeout, idempotency_key=job_id
        ),
        store_key=f"key-{job_id}",
        admitted_at=admitted_at,
    )


def test_remaining_budget_subtracts_time_on_the_dead_worker(
    budget_supervisor,
):
    supervisor, ticker = budget_supervisor
    route = _budget_route(timeout=10.0, admitted_at=ticker.now)
    ticker.now += 8.0
    assert supervisor._remaining_budget(route) == pytest.approx(2.0)


def test_unbounded_route_has_no_budget(budget_supervisor):
    supervisor, ticker = budget_supervisor
    route = _budget_route(timeout=None, admitted_at=ticker.now)
    ticker.now += 1000.0
    assert supervisor._remaining_budget(route) is None


def test_redispatch_ships_the_remaining_budget(
    budget_supervisor, monkeypatch
):
    # A job that burned 4s of a 10s budget on a dead worker gets 6s on
    # the ring successor — and the route keeps the pristine envelope so
    # a second failover subtracts from the same admission anchor.
    supervisor, ticker = budget_supervisor
    worker_client = _CapturingWorkerClient()
    monkeypatch.setattr(
        supervisor, "_assign", lambda store_key, exclude: "w1"
    )
    monkeypatch.setattr(supervisor, "_client", lambda worker_id: worker_client)
    route = _budget_route(timeout=10.0, admitted_at=ticker.now)
    ticker.now += 4.0
    assert supervisor._redispatch(route, exclude={"w0"}) is True
    assert worker_client.envelopes[0].timeout == pytest.approx(6.0)
    assert route.envelope.timeout == pytest.approx(10.0)
    assert route.worker_id == "w1"
    assert route.redispatches == 1


def test_exhausted_budget_fails_the_route_instead_of_redispatching(
    budget_supervisor, monkeypatch
):
    supervisor, ticker = budget_supervisor
    worker_client = _CapturingWorkerClient()
    monkeypatch.setattr(
        supervisor, "_assign", lambda store_key, exclude: "w1"
    )
    monkeypatch.setattr(supervisor, "_client", lambda worker_id: worker_client)
    route = _budget_route(timeout=10.0, admitted_at=ticker.now)
    ticker.now += 11.0
    assert supervisor._redispatch(route, exclude={"w0"}) is False
    assert worker_client.envelopes == []
    assert route.settled is not None
    assert route.settled["state"] == "failed"
    assert "budget exhausted across failover" in route.settled["error"]
    counters = supervisor.metrics.snapshot().counters
    assert counters["fleet_deadline_exhausted"] == 1


def test_drain_parked_skips_exhausted_routes_and_continues(
    budget_supervisor, monkeypatch
):
    # Budget can run out *while parked*; the drain must fail that route
    # and still re-dispatch the next parked job that has time left.
    supervisor, ticker = budget_supervisor
    worker_client = _CapturingWorkerClient()
    monkeypatch.setattr(
        supervisor, "_assign", lambda store_key, exclude: "w1"
    )
    monkeypatch.setattr(supervisor, "_client", lambda worker_id: worker_client)
    monkeypatch.setattr(supervisor, "_live_ids", lambda: {"w1"})
    spent = _budget_route(timeout=5.0, admitted_at=ticker.now, job_id="spent")
    fresh = _budget_route(
        timeout=60.0, admitted_at=ticker.now, job_id="fresh"
    )
    for route in (spent, fresh):
        route.worker_id = None
        route.parked = True
        supervisor._routes[route.job_id] = route
        supervisor._parked.append(route.job_id)
    ticker.now += 10.0
    supervisor._drain_parked()
    assert spent.settled is not None
    assert "budget exhausted across failover" in spent.settled["error"]
    assert fresh.settled is None
    assert fresh.worker_id == "w1"
    assert [env.idempotency_key for env in worker_client.envelopes] == [
        "fresh"
    ]
