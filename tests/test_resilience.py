"""Chaos suite: seeded fault plans against the whole resilience layer.

Every test here injects a deterministic failure — a crashing detector, a
torn spool write, a dead socket, a wedged worker — and asserts the stack
degrades exactly as documented instead of dying: tombstones on the
outcome, quarantined files on disk, an open breaker shedding load, a
draining scheduler handing out retry hints.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.core import ResultQuality, default_efes
from repro.resilience import (
    CORRUPTION_MARKER,
    CircuitBreaker,
    CircuitOpenError,
    CircuitState,
    FaultError,
    FaultPlan,
    FaultPoint,
    HealthMonitor,
    HealthState,
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
    job_key,
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
# Circuit breaker
# ----------------------------------------------------------------------


class TestCircuitBreaker:
    def test_full_cycle_closed_open_half_open_closed(self):
        now = [0.0]
        transitions = []
        breaker = CircuitBreaker(
            name="t",
            failure_threshold=2,
            reset_timeout=10.0,
            clock=lambda: now[0],
            listener=lambda old, new: transitions.append(new),
        )
        breaker.allow()
        breaker.record_failure()
        assert breaker.state is CircuitState.CLOSED
        breaker.record_failure()
        assert breaker.state is CircuitState.OPEN
        with pytest.raises(CircuitOpenError) as excinfo:
            breaker.allow()
        assert 0 < excinfo.value.retry_after <= 10.0
        now[0] += 10.0
        assert breaker.state is CircuitState.HALF_OPEN
        breaker.allow()  # the single probe
        with pytest.raises(CircuitOpenError):
            breaker.allow()  # second probe over half_open_max
        breaker.record_success()
        assert breaker.state is CircuitState.CLOSED
        breaker.allow()
        assert transitions == [
            CircuitState.OPEN,
            CircuitState.HALF_OPEN,
            CircuitState.CLOSED,
        ]

    def test_failed_probe_reopens_and_restarts_the_timer(self):
        now = [0.0]
        breaker = CircuitBreaker(
            failure_threshold=1, reset_timeout=5.0, clock=lambda: now[0]
        )
        breaker.record_failure()
        now[0] += 5.0
        assert breaker.state is CircuitState.HALF_OPEN
        breaker.record_failure()
        assert breaker.state is CircuitState.OPEN
        now[0] += 4.0
        assert breaker.state is CircuitState.OPEN  # timer restarted
        snapshot = breaker.snapshot()
        assert snapshot["opened_total"] == 2


class TestHealthMonitor:
    def test_reasons_drive_the_state(self):
        health = HealthMonitor()
        assert health.state is HealthState.HEALTHY
        health.flag("circuit_open")
        assert health.state is HealthState.DEGRADED
        health.clear("circuit_open")
        assert health.state is HealthState.HEALTHY

    def test_draining_is_terminal(self):
        health = HealthMonitor()
        health.flag("stuck_workers")
        health.start_draining()
        health.clear("stuck_workers")
        assert health.state is HealthState.DRAINING
        assert health.snapshot() == {
            "state": "draining",
            "reasons": [],
            "warnings": [],
            "fleet_degraded": False,
        }

    def test_fleet_degraded_sits_between_warning_and_degraded(self):
        health = HealthMonitor()
        health.set_fleet_degraded(True)
        assert health.state is HealthState.FLEET_DEGRADED
        assert health.snapshot()["fleet_degraded"] is True
        # A hard reason outranks partial fleet loss ...
        health.flag("circuit_open")
        assert health.state is HealthState.DEGRADED
        health.clear("circuit_open")
        # ... while fleet loss outranks an SLO advisory.
        health.set_warning("slo:availability", True)
        assert health.state is HealthState.FLEET_DEGRADED
        health.set_fleet_degraded(False)
        assert health.state is HealthState.SLO_WARNING

    def test_warnings_are_advisory_and_outranked_by_reasons(self):
        health = HealthMonitor()
        health.set_warning("slo:availability", True)
        assert health.state is HealthState.SLO_WARNING
        # A hard reason outranks any number of advisories ...
        health.flag("circuit_open")
        assert health.state is HealthState.DEGRADED
        health.clear("circuit_open")
        assert health.state is HealthState.SLO_WARNING
        # ... and clearing the warning restores full health.
        health.set_warning("slo:availability", False)
        assert health.state is HealthState.HEALTHY
        assert health.snapshot()["warnings"] == []


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
        assert CORRUPTION_MARKER in (tmp_path / "k.json").read_text()

        restarted = ReportStore(tmp_path)  # simulated restart
        assert restarted.last_recovery == {
            "scanned": 1,
            "valid": 0,
            "quarantined": 1,
        }
        assert restarted.get("k") is None
        assert restarted.quarantined_count() == 1
        assert (restarted.quarantine_directory / "k.json").exists()
        # The healed store accepts a fresh write for the same key.
        restarted.put("k", {"a": 2})
        assert ReportStore(tmp_path).get("k") == {"a": 2}

    def test_checksum_mismatch_is_never_served(self, tmp_path):
        store = ReportStore(tmp_path)
        store.put("k", {"a": 1})
        path = tmp_path / "k.json"
        envelope = json.loads(path.read_text(encoding="utf-8"))
        envelope["document"]["a"] = 42  # bit rot, checksum now stale
        path.write_text(json.dumps(envelope), encoding="utf-8")
        fresh = ReportStore(tmp_path)
        assert fresh.get("k") is None
        assert fresh.quarantined_count() == 1

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

    def test_consecutive_failures_trip_the_breaker(self, small_example):
        breaker = CircuitBreaker(name="jobs", failure_threshold=2)
        with JobScheduler(
            workers=1, max_queue=8, breaker=breaker
        ) as sched:

            def boom(job):
                raise ValueError("boom")

            for _ in range(2):
                job = sched.submit_callable(boom)
                sched.wait(job.id, timeout=2.0)
                assert job.state is JobState.FAILED
            assert breaker.state is CircuitState.OPEN
            with pytest.raises(CircuitOpenError):
                sched.submit_callable(lambda job: {"ok": True})
            # Degraded, not dead: /healthz says so.
            health = sched.health_snapshot()
            assert health["state"] == "degraded"
            assert "circuit_open" in health["reasons"]
            assert health["breaker"]["state"] == "open"

    def test_open_breaker_still_serves_the_store(self, small_example):
        breaker = CircuitBreaker(name="jobs", failure_threshold=1)
        store = ReportStore()
        key = job_key(small_example, "assess")
        store.put(key, {"kind": "assess", "reports": {}})
        with JobScheduler(
            workers=1, max_queue=8, breaker=breaker, store=store
        ) as sched:
            breaker.record_failure()
            assert breaker.state is CircuitState.OPEN
            job = sched.submit(small_example, kind="assess")
            assert job.state is JobState.DONE
            assert job.from_store
            # Work that would actually execute is still rejected.
            with pytest.raises(CircuitOpenError):
                sched.submit(small_example, kind="estimate")

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
            assert sched.health.state is HealthState.DRAINING
            release.set()
            closer.join(timeout=5.0)
            assert running.state is JobState.DONE
            counters = sched.metrics.snapshot().counters
            assert counters["jobs_drained"] == 1
        finally:
            release.set()
            sched.close()

    def test_watchdog_marks_stuck_workers(self):
        with JobScheduler(
            workers=1, max_queue=8, stuck_after=0.08
        ) as sched:
            job = sched.submit_callable(stubborn_payload(0.3))
            deadline = time.monotonic() + 2.0
            while time.monotonic() < deadline and not job.stuck:
                time.sleep(0.02)
            assert job.stuck
            assert "stuck_workers" in sched.health.reasons
            sched.wait(job.id, timeout=2.0)
            assert job.state is JobState.DONE  # stuck is a mark, not a kill
            assert sched.metrics.snapshot().counters["jobs_stuck"] >= 1

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


@pytest.fixture()
def flaky_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _FlakyOnceHandler)
    server.recovered = False
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    try:
        yield f"http://{host}:{port}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5.0)


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

    def test_retry_honours_retry_after_and_recovers(self, flaky_server):
        sleeps = []
        client = ServiceClient(flaky_server, sleep=sleeps.append)
        assert client.healthz() == {"ok": True}
        # The 503 carried Retry-After: 0.25; the backoff honoured it as
        # a minimum even though the policy's caps are smaller.
        assert sleeps and sleeps[0] >= 0.25
        assert client.retries_total == 1

    def test_open_breaker_maps_to_503_with_retry_after(self, small_example):
        breaker = CircuitBreaker(name="jobs", failure_threshold=1)
        scheduler = JobScheduler(workers=1, max_queue=8, breaker=breaker)
        server = make_server(scheduler, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            breaker.record_failure()
            client = ServiceClient(
                server.url,
                retry_policy=RetryPolicy(max_attempts=1),
            )
            with pytest.raises(ServiceUnavailableError) as excinfo:
                client.submit("s1-s2", kind="assess")
            assert excinfo.value.retry_after is not None
            doc = client.healthz()
            assert doc["status"] == "ok"  # alive...
            assert doc["health"]["state"] == "degraded"  # ...but flagged
            assert doc["health"]["reasons"] == ["circuit_open"]
        finally:
            server.shutdown()
            server.server_close()
            scheduler.close(wait=True, timeout=5.0)
            thread.join(timeout=5.0)

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
