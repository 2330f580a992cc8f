"""Chaos suite: seeded fault plans against the whole resilience layer.

Every test here injects a deterministic failure — a crashing detector, a
torn spool write, a dead socket, a server sending a bad retry hint — and
asserts the stack degrades exactly as documented instead of dying:
tombstones on the outcome, quarantined files on disk, a degraded health
state, a draining scheduler handing out retry hints.
"""

from __future__ import annotations

import contextlib
import json
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.core import ResultQuality, default_efes
from repro.resilience import (
    CORRUPTION_MARKER,
    FaultError,
    FaultPlan,
    FaultPoint,
    RetryPolicy,
    call_with_retry,
    corrupt_text,
    fault_plan_from_env,
    fault_point,
    injected_faults,
    reset_fault_plan,
)
from repro.service import (
    DRAINING_ERROR,
    JobScheduler,
    JobState,
    ReportStore,
    ServiceClient,
    ServiceUnavailableError,
    make_server,
)


@pytest.fixture(autouse=True)
def _no_leaked_fault_plan():
    yield
    reset_fault_plan()


def blocking_payload(release, started=None):
    """A cooperative payload that runs until ``release`` is set."""

    def payload(job):
        if started is not None:
            started.set()
        while not release.wait(0.01):
            job.check_cancelled()
        return {"ok": True}

    return payload


def stubborn_payload(duration, started=None):
    """A payload that ignores cancellation and sleeps ``duration``."""

    def payload(job):
        if started is not None:
            started.set()
        time.sleep(duration)
        return {"ok": True}

    return payload


# ----------------------------------------------------------------------
# Fault plans
# ----------------------------------------------------------------------


class TestFaultPlan:
    def test_env_inline_json_and_malformed(self):
        plan = fault_plan_from_env(
            {"REPRO_FAULT_PLAN": '{"points": [{"site": "detector"}]}'}
        )
        assert len(plan) == 1
        assert fault_plan_from_env({"REPRO_FAULT_PLAN": ""}) is None
        with pytest.raises(ValueError):
            fault_plan_from_env({"REPRO_FAULT_PLAN": "{torn"})
        with pytest.raises(ValueError):
            fault_plan_from_env(
                {"REPRO_FAULT_PLAN": '{"points": [{"site": ""}]}'}
            )

    def test_env_file_path(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(
            '{"seed": 3, "points": [{"site": "store.read"}]}',
            encoding="utf-8",
        )
        plan = fault_plan_from_env({"REPRO_FAULT_PLAN": str(path)})
        assert plan.seed == 3
        assert plan.points[0].site == "store.read"

    def test_times_per_budget_scopes_to_context_key(self):
        plan = FaultPlan(
            [FaultPoint(site="detector", times=1, per="scenario")]
        )
        fired = []
        with injected_faults(plan):
            for scenario in ("a", "a", "b"):
                try:
                    fault_point("detector", scenario=scenario)
                    fired.append(False)
                except FaultError:
                    fired.append(True)
        # Exactly one firing per distinct scenario value.
        assert fired == [True, False, True]
        assert plan.trip_count("detector") == 2

    def test_match_filters_on_context(self):
        plan = FaultPlan(
            [FaultPoint(site="detector", match={"name": "values"})]
        )
        with injected_faults(plan):
            fault_point("detector", name="mapping")  # no match: silent
            with pytest.raises(FaultError):
                fault_point("detector", name="values")

    def test_corrupt_rules_never_burn_at_control_sites(self):
        plan = FaultPlan(
            [FaultPoint(site="store.write", action="corrupt", times=1)]
        )
        with injected_faults(plan):
            fault_point("store.write", key="k")  # control site: no-op
            mangled = corrupt_text("store.write", '{"a": 1}', key="k")
        assert CORRUPTION_MARKER in mangled
        assert plan.trip_count() == 1

    def test_delay_action_sleeps(self):
        plan = FaultPlan(
            [
                FaultPoint(
                    site="profile", action="delay", delay_seconds=0.05
                )
            ]
        )
        with injected_faults(plan):
            started = time.perf_counter()
            fault_point("profile", relation="r")
            assert time.perf_counter() - started >= 0.04


# ----------------------------------------------------------------------
# Graceful degradation through the pipeline
# ----------------------------------------------------------------------


class TestDegradedPipeline:
    def test_detector_crash_degrades_module_not_run(self, small_example):
        plan = FaultPlan(
            [
                FaultPoint(
                    site="detector",
                    match={"name": "values"},
                    times=1,
                    per="scenario",
                )
            ]
        )
        efes = default_efes()
        with injected_faults(plan):
            outcome = efes.run(small_example, ResultQuality.HIGH_QUALITY)
        assert outcome.is_degraded
        assert [d.module for d in outcome.degradations] == ["values"]
        assert outcome.degradations[0].phase == "assess"
        assert outcome.degradations[0].scenario == small_example.name
        # The surviving modules still price the scenario.
        assert set(outcome.reports) == {"mapping", "structure"}
        assert outcome.estimate.total_minutes > 0

    def test_strict_escape_hatch_restores_fail_fast(self, small_example):
        plan = FaultPlan(
            [FaultPoint(site="detector", match={"name": "values"})]
        )
        efes = default_efes()
        with injected_faults(plan), pytest.raises(FaultError):
            efes.run(
                small_example, ResultQuality.HIGH_QUALITY, strict=True
            )

    def test_degraded_run_counts_metrics_and_marks_trace(
        self, small_example
    ):
        from repro.runtime import Runtime

        plan = FaultPlan(
            [FaultPoint(site="detector", match={"name": "mapping"})]
        )
        runtime = Runtime(backend="serial")
        efes = default_efes(runtime=runtime)
        with injected_faults(plan):
            outcome = efes.run(
                small_example, ResultQuality.HIGH_QUALITY, trace=True
            )
        counters = runtime.metrics.snapshot().counters
        assert counters["degraded_total"] >= 1
        assert counters["detectors_degraded"] >= 1
        spans = {span.name: span for span in outcome.trace.walk()}
        assert "error" in spans["detector:mapping"].attributes
        assert outcome.trace.attributes["degraded"] == 1


# ----------------------------------------------------------------------
# Retry combinator
# ----------------------------------------------------------------------


class TestRetryCombinator:
    def test_seeded_jitter_is_deterministic(self):
        def delays_of_one_run():
            delays = []
            attempts = []

            def flaky():
                attempts.append(1)
                raise OSError("transient")

            with pytest.raises(OSError):
                call_with_retry(
                    flaky,
                    policy=RetryPolicy(
                        max_attempts=4, retry_on=(OSError,), seed=99
                    ),
                    sleep=delays.append,
                )
            assert len(attempts) == 4
            return delays

        first, second = delays_of_one_run(), delays_of_one_run()
        assert first == second
        assert len(first) == 3

    def test_deadline_budget_stops_retrying(self):
        now = [0.0]

        def advance(seconds):
            now[0] += seconds

        attempts = []

        def always_failing():
            attempts.append(1)
            raise OSError("transient")

        with pytest.raises(OSError):
            call_with_retry(
                always_failing,
                policy=RetryPolicy(
                    max_attempts=10,
                    base_delay=1.0,
                    multiplier=2.0,
                    jitter=False,
                    deadline=2.5,
                    retry_on=(OSError,),
                ),
                sleep=advance,
                clock=lambda: now[0],
            )
        # Waits would be 1s, 2s, 4s...: the 4s retry overshoots the
        # 2.5s budget, so only the first two retries happen.
        assert len(attempts) == 2

    def test_retry_after_hint_raises_the_delay(self):
        class Hinted(OSError):
            retry_after = 5.0

        delays = []
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) == 1:
                raise Hinted("busy")
            return "ok"

        assert (
            call_with_retry(
                flaky,
                policy=RetryPolicy(
                    max_attempts=3, max_delay=0.1, retry_on=(OSError,)
                ),
                sleep=delays.append,
            )
            == "ok"
        )
        assert delays == [5.0]

    def test_non_matching_exception_is_not_retried(self):
        calls = []

        def broken():
            calls.append(1)
            raise ValueError("logic bug")

        with pytest.raises(ValueError):
            call_with_retry(
                broken,
                policy=RetryPolicy(max_attempts=5, retry_on=(OSError,)),
                sleep=lambda _: None,
            )
        assert len(calls) == 1


# ----------------------------------------------------------------------
# Self-healing report store
# ----------------------------------------------------------------------


class TestStoreSelfHealing:
    def test_corrupted_write_is_quarantined_on_restart(self, tmp_path):
        store = ReportStore(tmp_path)
        plan = FaultPlan(
            [FaultPoint(site="store.write", action="corrupt", times=1)]
        )
        with injected_faults(plan):
            store.put("k", {"a": 1})
        assert store.get("k") == {"a": 1}  # in-memory copy unharmed
        assert CORRUPTION_MARKER in (tmp_path / "k.rec").read_text()

        restarted = ReportStore(tmp_path)  # simulated restart
        assert restarted.last_recovery == {
            "scanned": 1,
            "valid": 0,
            "quarantined": 1,
        }
        assert restarted.get("k") is None
        assert restarted.quarantined_count() == 1
        assert (restarted.quarantine_directory / "k.rec").exists()
        # The healed store accepts a fresh write for the same key.
        restarted.put("k", {"a": 2})
        assert ReportStore(tmp_path).get("k") == {"a": 2}

    def test_checksum_mismatch_is_never_served(self, tmp_path):
        store = ReportStore(tmp_path)
        store.put("k", {"a": 1})
        path = tmp_path / "k.rec"
        line = path.read_text(encoding="utf-8")
        assert '"a":1' in line
        # Bit rot in the record body: the checksum prefix is now stale.
        path.write_text(line.replace('"a":1', '"a":42'), encoding="utf-8")
        fresh = ReportStore(tmp_path)
        assert fresh.get("k") is None
        assert fresh.quarantined_count() == 1

    def test_every_damaged_entry_is_quarantined(self, tmp_path):
        """Every proper prefix of a spooled entry and every byte of it
        flipped (XOR 0xFF, which leaves invalid UTF-8, and XOR 0x01)
        is quarantined by a fresh store: never served, never raised."""
        ReportStore(tmp_path).put("k", {"estimate": {"total_minutes": 3.0}})
        path = tmp_path / "k.rec"
        entry = path.read_bytes()
        variants = [entry[:end] for end in range(len(entry))]
        for mask in (0xFF, 0x01):
            for index in range(len(entry)):
                damaged = bytearray(entry)
                damaged[index] ^= mask
                variants.append(bytes(damaged))
        for damaged in variants:
            path.write_bytes(damaged)
            store = ReportStore(tmp_path)
            assert store.get("k") is None, damaged
            assert not path.exists(), damaged
            assert (store.quarantine_directory / "k.rec").exists()

    def test_transient_write_faults_are_retried(self, tmp_path):
        store = ReportStore(tmp_path)
        plan = FaultPlan([FaultPoint(site="store.write", times=2)])
        with injected_faults(plan):
            store.put("k", {"a": 1})
        counters = store.metrics.snapshot().counters
        assert counters["store_write_retries"] == 2
        assert ReportStore(tmp_path).get("k") == {"a": 1}

    def test_recovery_sweeps_stale_temp_files(self, tmp_path):
        (tmp_path / "dead.tmp.123").write_text("never renamed")
        store = ReportStore(tmp_path)
        assert not (tmp_path / "dead.tmp.123").exists()
        assert store.last_recovery == {
            "scanned": 0,
            "valid": 0,
            "quarantined": 0,
        }

    def test_injected_read_fault_is_a_miss(self, tmp_path):
        store = ReportStore(tmp_path)
        store.put("k", {"a": 1})
        restarted = ReportStore(tmp_path)
        plan = FaultPlan([FaultPoint(site="store.read", times=1)])
        with injected_faults(plan):
            assert restarted.get("k") is None  # fault: a miss, no crash
        assert restarted.get("k") == {"a": 1}  # next read succeeds


# ----------------------------------------------------------------------
# Scheduler resilience
# ----------------------------------------------------------------------


class TestSchedulerResilience:
    def test_timeout_racing_completion_settles_exactly_once(self):
        """Regression: a payload finishing after its timeout fired must
        not double-settle the job (flip FAILED back to DONE/CANCELLED,
        double-release the slot, or double-count metrics).  Grace is
        kept below the payload duration so the FAILED settle wins."""
        with JobScheduler(
            workers=1, max_queue=8, deadline_grace=0.05
        ) as sched:
            job = sched.submit_callable(
                stubborn_payload(0.4), timeout=0.1
            )
            sched.wait(job.id, timeout=2.0)
            assert job.state is JobState.FAILED
            assert "timed out" in job.error
            # Let the abandoned payload thread drain and report in late.
            deadline = time.monotonic() + 2.0
            while time.monotonic() < deadline:
                counters = sched.metrics.snapshot().counters
                if counters.get("jobs_double_settle_averted"):
                    break
                time.sleep(0.02)
            counters = sched.metrics.snapshot().counters
            assert counters["jobs_double_settle_averted"] >= 1
            assert job.state is JobState.FAILED  # first settle stood
            assert counters["jobs_failed"] == 1
            assert counters.get("jobs_completed", 0) == 0
            # The slot was released exactly once: the next job runs.
            follow_up = sched.submit_callable(lambda job: {"ok": True})
            sched.wait(follow_up.id, timeout=2.0)
            assert follow_up.state is JobState.DONE

    def test_dispatch_fault_costs_the_job_not_the_dispatcher(self):
        plan = FaultPlan([FaultPoint(site="scheduler.dispatch", times=1)])
        with injected_faults(plan):
            with JobScheduler(workers=1, max_queue=8) as sched:
                first = sched.submit_callable(lambda job: {"ok": True})
                sched.wait(first.id, timeout=2.0)
                second = sched.submit_callable(lambda job: {"ok": True})
                sched.wait(second.id, timeout=2.0)
        assert first.state is JobState.FAILED
        assert "injected fault" in first.error
        assert second.state is JobState.DONE

    def test_graceful_drain_fails_queued_jobs_with_retry_hint(self):
        release = threading.Event()
        started = threading.Event()
        sched = JobScheduler(workers=1, max_queue=8)
        try:
            running = sched.submit_callable(
                blocking_payload(release, started)
            )
            assert started.wait(2.0)
            queued = sched.submit_callable(lambda job: {"ok": True})
            closer = threading.Thread(
                target=lambda: sched.close(wait=True, timeout=5.0)
            )
            closer.start()
            sched.wait(queued.id, timeout=2.0)
            assert queued.state is JobState.FAILED
            assert queued.error == DRAINING_ERROR
            assert queued.retry_after is not None
            assert queued.snapshot()["retry_after"] == queued.retry_after
            assert sched.health_snapshot()["state"] == "draining"
            release.set()
            closer.join(timeout=5.0)
            assert running.state is JobState.DONE
            counters = sched.metrics.snapshot().counters
            assert counters["jobs_drained"] == 1
        finally:
            release.set()
            sched.close()

    def test_degraded_assessment_lands_in_the_result_document(
        self, small_example
    ):
        plan = FaultPlan(
            [
                FaultPoint(
                    site="detector",
                    match={"name": "values"},
                    times=1,
                    per="scenario",
                )
            ]
        )
        with injected_faults(plan):
            with JobScheduler(workers=1, max_queue=8) as sched:
                job = sched.submit(small_example, kind="assess")
                sched.wait(job.id, timeout=60.0)
        assert job.state is JobState.DONE
        degradations = job.result["degradations"]
        assert [d["module"] for d in degradations] == ["values"]
        assert set(job.result["reports"]) == {"mapping", "structure"}

    def test_degraded_jobs_are_counted(self, small_example):
        plan = FaultPlan(
            [FaultPoint(site="detector", match={"name": "values"}, times=1)]
        )
        with injected_faults(plan):
            with JobScheduler(workers=1, max_queue=8) as sched:
                degraded = sched.submit(small_example, kind="assess")
                sched.wait(degraded.id, timeout=60.0)
                assert degraded.state is JobState.DONE
                assert degraded.result["degradations"]
                assert sched.metrics.counter("jobs_degraded") == 1
                # Another key, so the job runs rather than being served
                # from the store; the fault is spent, so it runs clean.
                clean = sched.submit(small_example, kind="estimate")
                sched.wait(clean.id, timeout=60.0)
                assert clean.state is JobState.DONE
                assert not clean.from_store
                assert "degradations" not in clean.result
                assert sched.metrics.counter("jobs_degraded") == 1

    @pytest.mark.parametrize("kind", ["assess", "estimate"])
    def test_degraded_result_is_not_stored(self, kind):
        # The content address answers with complete results only: once
        # the transient fault is gone, the same content runs again.
        from repro.scenarios import resolve_scenario

        plan = FaultPlan(
            [FaultPoint(site="detector", match={"name": "values"}, times=1)]
        )
        with JobScheduler(workers=1, max_queue=8) as sched:
            with injected_faults(plan):
                degraded = sched.submit(resolve_scenario("s4-s4"), kind=kind)
                sched.wait(degraded.id, timeout=60.0)
            assert degraded.state is JobState.DONE
            assert degraded.result["degradations"]
            again = sched.submit(resolve_scenario("s4-s4"), kind=kind)
            sched.wait(again.id, timeout=60.0)
            assert again.state is JobState.DONE
            assert not again.from_store
            assert "degradations" not in again.result
            assert sched.store.get(again.store_key) == again.result

    def test_quarantined_store_entry_degrades_health(self, tmp_path):
        (tmp_path / "abc.rec").write_text("garbage", encoding="utf-8")
        sched = JobScheduler(
            workers=1, max_queue=8, store=ReportStore(tmp_path)
        )
        try:
            health = sched.health_snapshot()
            assert {key: health[key] for key in ("state", "reasons")} == {
                "state": "degraded",
                "reasons": ["store_quarantine"],
            }
        finally:
            sched.close()
        assert sched.health_snapshot()["state"] == "draining"


# ----------------------------------------------------------------------
# Client resilience
# ----------------------------------------------------------------------


class _FlakyOnceHandler(BaseHTTPRequestHandler):
    """First request: 503 + Retry-After header; afterwards: 200."""

    def do_GET(self):  # noqa: N802 - stdlib naming
        if not self.server.recovered:
            self.server.recovered = True
            self._reply(503, {"error": "warming up"}, retry_after="0.25")
        else:
            self._reply(200, {"ok": True})

    def _reply(self, status, doc, retry_after=None):
        body = json.dumps(doc).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if retry_after is not None:
            self.send_header("Retry-After", retry_after)
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass


class _BadHintHandler(_FlakyOnceHandler):
    """Every request: 503 carrying the server's ``hint``, a ``(where,
    value)`` pair, as the ``Retry-After`` header or the body's
    ``retry_after``."""

    def do_GET(self):  # noqa: N802 - stdlib naming
        where, value = self.server.hint
        if where == "header":
            self._reply(503, {"error": "busy"}, retry_after=value)
        else:
            self._reply(503, {"error": "busy", "retry_after": value})


@contextlib.contextmanager
def stub_server(handler, **state):
    """Serve ``handler`` on an ephemeral port, with ``state`` set as
    server attributes; yields the URL."""
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    for name, value in state.items():
        setattr(server, name, value)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    try:
        yield f"http://{host}:{port}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5.0)


@contextlib.contextmanager
def raw_server(answer: bytes):
    """A socket that reads the head of each request, sends the raw bytes
    ``answer`` and hangs up; yields the URL."""
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(0.05)
    stopped = threading.Event()

    def serve():
        while not stopped.is_set():
            try:
                connection, _ = listener.accept()
            except TimeoutError:
                continue
            with connection:
                head = b""
                while b"\r\n\r\n" not in head:
                    chunk = connection.recv(4096)
                    if not chunk:
                        break
                    head += chunk
                connection.sendall(answer)

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{listener.getsockname()[1]}"
    finally:
        stopped.set()
        thread.join(timeout=5.0)
        listener.close()
    assert not thread.is_alive()


@pytest.fixture()
def flaky_server():
    with stub_server(_FlakyOnceHandler, recovered=False) as url:
        yield url


class TestClientResilience:
    def test_dead_server_raises_service_unavailable(self):
        import socket

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            dead_port = probe.getsockname()[1]
        sleeps = []
        client = ServiceClient(
            f"http://127.0.0.1:{dead_port}",
            timeout=1.0,
            retry_policy=RetryPolicy(
                max_attempts=2,
                retry_on=(ServiceUnavailableError,),
                seed=0,
            ),
            sleep=sleeps.append,
        )
        with pytest.raises(ServiceUnavailableError) as excinfo:
            client.healthz()
        assert "unreachable" in str(excinfo.value)
        assert excinfo.value.status == 503
        assert client.retries_total == 1  # it did retry before giving up
        assert len(sleeps) == 1

    @pytest.mark.parametrize(
        "answer",
        [
            pytest.param(b"garbage\r\n\r\n", id="garbage"),
            pytest.param(b"", id="hang-up-before-answering"),
            pytest.param(
                b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n{\"st",
                id="hang-up-mid-body",
            ),
            pytest.param(b"HTTP/1.1 2", id="hang-up-mid-status-line"),
            pytest.param(
                b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhello",
                id="not-json",
            ),
        ],
    )
    def test_broken_answer_raises_service_unavailable(self, answer):
        """No http.client or socket exception escapes the client."""
        with raw_server(answer) as url:
            client = ServiceClient(
                url, timeout=5.0, retry_policy=RetryPolicy(max_attempts=1)
            )
            with pytest.raises(ServiceUnavailableError):
                client.healthz()
            with pytest.raises(ServiceUnavailableError):
                client.submit("s4-s4")
            client.close()

    def test_retry_honours_retry_after_and_recovers(self, flaky_server):
        sleeps = []
        client = ServiceClient(flaky_server, sleep=sleeps.append)
        assert client.healthz() == {"ok": True}
        # The 503 carried Retry-After: 0.25; the backoff honoured it as
        # a minimum even though the policy's caps are smaller.
        assert sleeps and sleeps[0] >= 0.25
        assert client.retries_total == 1

    @pytest.mark.parametrize(
        "where, value",
        [
            pytest.param("header", "inf", id="header-inf"),
            pytest.param("header", "nan", id="header-nan"),
            pytest.param("header", "-3", id="header-negative"),
            pytest.param("body", "soon", id="body-text"),
            pytest.param("body", None, id="body-null"),
            pytest.param("body", float("nan"), id="body-nan"),
            pytest.param("body", -3, id="body-negative"),
        ],
    )
    def test_unusable_retry_hint_is_no_hint(self, where, value):
        """A hint that is not a finite number >= 0 is no hint: the 503 is
        a plain ServiceUnavailableError, and every backoff stays inside
        the policy's own caps."""
        sleeps = []
        with stub_server(_BadHintHandler, hint=(where, value)) as url:
            client = ServiceClient(url, sleep=sleeps.append)
            with pytest.raises(ServiceUnavailableError) as excinfo:
                client.healthz()
        assert excinfo.value.retry_after is None
        policy = client.retry_policy
        assert len(sleeps) == policy.max_attempts - 1
        assert all(0 <= delay <= policy.max_delay for delay in sleeps)

    def test_overlong_retry_hint_reraises_its_error(self):
        """A hint past the client's timeout is not waited out (sleeping
        1e300 s would raise OverflowError): the 503's error, carrying
        the hint, re-raises at once."""
        with stub_server(_BadHintHandler, hint=("header", "1e300")) as url:
            client = ServiceClient(url)
            with pytest.raises(ServiceUnavailableError) as excinfo:
                client.healthz()
        assert excinfo.value.retry_after == 1e300
        assert client.retries_total == 0

    def test_http_handler_fault_surfaces_as_500(self):
        scheduler = JobScheduler(workers=1, max_queue=8)
        server = make_server(scheduler, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        plan = FaultPlan([FaultPoint(site="http.handler", times=1)])
        try:
            client = ServiceClient(
                server.url, retry_policy=RetryPolicy(max_attempts=1)
            )
            with injected_faults(plan):
                from repro.service import ServiceError

                with pytest.raises(ServiceError) as excinfo:
                    client.healthz()
                assert excinfo.value.status == 500
                assert client.healthz()["status"] == "ok"  # healed
        finally:
            server.shutdown()
            server.server_close()
            scheduler.close(wait=True, timeout=5.0)
            thread.join(timeout=5.0)
