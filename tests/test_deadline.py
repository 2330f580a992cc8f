"""Deadline propagation and cooperative cancellation.

Covers the :mod:`repro.runtime.deadline` primitives, the scheduler's
two-phase deadline enforcement (fire → grace → partial DONE or FAILED),
the cancellation races around the serialize/store phases, and the
client-side deadline budget (``X-Deadline-Ms``, no retry past the
deadline).
"""

from __future__ import annotations

import pickle
import threading
import time

import pytest

from repro.resilience.faults import FaultPlan, FaultPoint, injected_faults
from repro.runtime.deadline import (
    CancelScope,
    Deadline,
    DeadlineExceededError,
    OperationCancelled,
    checkpoint,
    current_scope,
    degrades,
)
from repro.service import JobScheduler, JobState, ServiceClient, make_server
from repro.service.client import (
    DeadlineExceededError as ClientDeadlineExceededError,
)
from repro.service.client import SubmitEnvelope


class TestDeadline:
    def test_after_and_remaining(self):
        deadline = Deadline.after(5.0)
        assert 0.0 < deadline.remaining() <= 5.0
        assert not deadline.expired

    def test_expired_deadline(self):
        deadline = Deadline(time.monotonic() - 1.0)
        assert deadline.expired
        assert deadline.remaining() < 0

    def test_after_clamps_negative_budgets(self):
        # A spent budget arrives as "0 seconds left", never as a point
        # in the past that would make remaining() lie about magnitude.
        deadline = Deadline.after(-10.0)
        assert deadline.expired
        assert deadline.remaining() > -1.0


class TestCancelScope:
    def test_checkpoint_is_noop_without_scope(self):
        assert current_scope() is None
        checkpoint("anywhere")  # must not raise

    def test_cancel_event_raises_operation_cancelled(self):
        event = threading.Event()
        event.set()
        with CancelScope(cancel_event=event).activated():
            with pytest.raises(OperationCancelled) as excinfo:
                checkpoint("unit")
        assert excinfo.value.reason == "cancelled"
        assert excinfo.value.site == "unit"

    def test_expired_deadline_raises_deadline_exceeded(self):
        scope = CancelScope(deadline=Deadline(time.monotonic() - 0.1))
        with scope.activated():
            with pytest.raises(DeadlineExceededError) as excinfo:
                checkpoint("unit")
        assert excinfo.value.reason == "deadline"

    def test_deadline_wins_over_cancel_event(self):
        # The scheduler sets the cancel event when the deadline fires;
        # the settlement path must still classify this as a timeout.
        event = threading.Event()
        event.set()
        scope = CancelScope(
            deadline=Deadline(time.monotonic() - 0.1), cancel_event=event
        )
        assert scope.cancel_reason() == "deadline"

    def test_only_a_plain_cancel_escapes_the_degradation_policy(self):
        assert degrades(DeadlineExceededError(), strict=False)
        assert degrades(ValueError("bug"), strict=False)
        assert not degrades(OperationCancelled(), strict=False)
        assert not degrades(DeadlineExceededError(), strict=True)

    def test_exception_hierarchy(self):
        assert issubclass(DeadlineExceededError, OperationCancelled)

    def test_exceptions_survive_pickling(self):
        for cls in (
            OperationCancelled,
            DeadlineExceededError,
        ):
            restored = pickle.loads(pickle.dumps(cls("boom")))
            assert isinstance(restored, cls)
            assert "boom" in str(restored)

    def test_scope_deactivates_on_exit(self):
        scope = CancelScope(deadline=Deadline.after(10.0))
        with scope.activated():
            assert current_scope() is scope
        assert current_scope() is None

    def test_checkpoint_rechecks_after_injected_delay(self):
        # The fault plan stalls the checkpoint past the deadline; the
        # overrun must be noticed at THIS checkpoint, not the next one.
        plan = FaultPlan(
            [
                FaultPoint(
                    site="deadline.checkpoint",
                    action="delay",
                    delay_seconds=0.25,
                )
            ]
        )
        with injected_faults(plan):
            with CancelScope(deadline=Deadline.after(0.05)).activated():
                with pytest.raises(DeadlineExceededError):
                    checkpoint("stalled")
        assert plan.trip_count("deadline.checkpoint") == 1

    def test_fault_site_fires_only_under_an_active_scope(self):
        plan = FaultPlan(
            [FaultPoint(site="deadline.checkpoint", action="delay")]
        )
        with injected_faults(plan):
            checkpoint("unscoped")
        assert plan.trip_count("deadline.checkpoint") == 0


def _sleeper(seconds):
    """A non-cooperative payload: no checkpoints, just wall-clock."""

    def payload(job):
        time.sleep(seconds)
        return {"ok": True}

    return payload


class TestSchedulerDeadline:
    def test_partial_estimate_on_deadline(self, small_example):
        # Stall the first cooperative checkpoint past the job's budget:
        # the deadline fires mid-assessment, the stalled module aborts at
        # its checkpoint, the remaining stages tombstone, and the job
        # settles DONE with a marked partial inside the grace window.
        plan = FaultPlan(
            [
                FaultPoint(
                    site="deadline.checkpoint",
                    action="delay",
                    delay_seconds=0.6,
                    times=1,
                )
            ]
        )
        with injected_faults(plan), JobScheduler(
            workers=1, deadline_grace=5.0
        ) as sched:
            job = sched.submit(
                small_example, "estimate", "high", timeout=0.15
            )
            job = sched.wait(job.id, timeout=30)
            assert job.state is JobState.DONE
            assert job.result["deadline_exceeded"] is True
            assert job.result["degradations"], "unrun stages must tombstone"
            assert job.deadline_fired
            # Partials are budget-dependent: the content address must
            # keep answering with full-budget results only.
            assert sched.store.get(job.store_key) is None
            counters = sched.metrics.snapshot().counters
            assert counters["jobs_deadline_exceeded"] >= 1
            assert counters["jobs_deadline_partial"] >= 1
            # A partial is one degraded job, although it also carries
            # degradations.
            assert counters["jobs_degraded"] == 1
        assert plan.trip_count("deadline.checkpoint") >= 1

    def test_grace_expiry_settles_failed(self):
        # A payload that never reaches a checkpoint cannot hand back a
        # partial; once deadline + grace passes the reaper settles the
        # job FAILED without waiting for the runaway thread.
        with JobScheduler(workers=1, deadline_grace=0.1) as sched:
            job = sched.submit_callable(_sleeper(1.0), timeout=0.1)
            job = sched.wait(job.id, timeout=5)
            assert job.state is JobState.FAILED
            assert "timed out after 0.1s" in job.error
            counters = sched.metrics.snapshot().counters
            assert counters["jobs_timeout"] >= 1

    def test_deadline_fire_frees_the_slot_immediately(self):
        # Slot reclamation must not wait for the grace window: a sibling
        # job runs while the overrunning payload is still draining.
        with JobScheduler(workers=1, deadline_grace=5.0) as sched:
            slow = sched.submit_callable(
                _sleeper(0.7), name="slow", timeout=0.1
            )
            quick = sched.submit_callable(
                lambda job: {"quick": True}, name="quick"
            )
            quick = sched.wait(quick.id, timeout=2.0)
            assert quick.state is JobState.DONE
            assert sched.job(slow.id).state is JobState.RUNNING
            # The drained payload still settles: its (late) result is
            # kept as a marked partial.
            slow = sched.wait(slow.id, timeout=5.0)
            assert slow.state is JobState.DONE
            assert slow.result["deadline_exceeded"] is True

    def test_late_payload_without_result_counts_one_timeout(self):
        # The fired deadline settles the job once; the late payload
        # arrival must avert the double settle instead of clobbering it.
        with JobScheduler(workers=1, deadline_grace=0.05) as sched:
            job = sched.submit_callable(_sleeper(0.5), timeout=0.05)
            job = sched.wait(job.id, timeout=5)
            assert job.state is JobState.FAILED
            deadline = time.monotonic() + 2.0
            while time.monotonic() < deadline:
                counters = sched.metrics.snapshot().counters
                if counters.get("jobs_double_settle_averted", 0) >= 1:
                    break
                time.sleep(0.01)
            counters = sched.metrics.snapshot().counters
            assert counters["jobs_timeout"] == 1
            assert counters["jobs_double_settle_averted"] >= 1

    def test_cancel_during_serialize_phase(
        self, small_example, monkeypatch
    ):
        # Cancellation lands while the result document is being built:
        # the cancel settles first, the finished payload's settle is
        # averted, and no partial leaks out as DONE.
        import repro.service.scheduler as scheduler_module

        original = scheduler_module.estimate_to_dict
        holder = {}

        def cancelling(estimate):
            sched = holder["sched"]
            sched.cancel(holder["job_id"])
            return original(estimate)

        monkeypatch.setattr(
            scheduler_module, "estimate_to_dict", cancelling
        )
        with JobScheduler(workers=1) as sched:
            holder["sched"] = sched
            job = sched.submit(small_example, "estimate", "high")
            holder["job_id"] = job.id
            job = sched.wait(job.id, timeout=60)
            assert job.state is JobState.CANCELLED
            assert job.result is None
            counters = sched.metrics.snapshot().counters
            assert counters["jobs_cancelled"] >= 1
            assert counters["jobs_double_settle_averted"] >= 1

    def test_plain_cancel_degrades_no_module(self, small_example):
        # A cancel lands while the first detector stalls: the next
        # checkpoint's OperationCancelled stops the whole job instead of
        # tombstoning the detectors and planners that have not run.
        plan = FaultPlan(
            [
                FaultPoint(
                    site="detector",
                    action="delay",
                    match={"name": "mapping"},
                    delay_seconds=0.5,
                    times=1,
                )
            ]
        )
        with injected_faults(plan), JobScheduler(workers=1) as sched:
            job = sched.submit(small_example, "estimate", "high")
            deadline = time.monotonic() + 30
            while not plan.trip_count("detector"):
                assert time.monotonic() < deadline, "the delay never fired"
                time.sleep(0.005)
            sched.cancel(job.id)
            # The payload reports in after the stall; its settle loses.
            while not sched.metrics.counter("jobs_double_settle_averted"):
                assert time.monotonic() < deadline, "the payload never ended"
                time.sleep(0.005)
            assert sched.job(job.id).state is JobState.CANCELLED
            counters = sched.metrics.snapshot().counters
            for name in (
                "degraded_total", "detectors_degraded", "planners_degraded"
            ):
                assert counters.get(name, 0) == 0, name

    def test_cancel_during_store_phase(self, small_example, monkeypatch):
        # Same race one phase later: the cancel re-enters the scheduler
        # lock from inside store.put; the DONE settle must lose cleanly.
        holder = {}

        with JobScheduler(workers=1) as sched:
            original_put = sched.store.put

            def cancelling_put(key, document):
                sched.cancel(holder["job_id"])
                return original_put(key, document)

            monkeypatch.setattr(sched.store, "put", cancelling_put)
            job = sched.submit(small_example, "assess")
            holder["job_id"] = job.id
            job = sched.wait(job.id, timeout=60)
            assert job.state is JobState.CANCELLED
            counters = sched.metrics.snapshot().counters
            assert counters["jobs_double_settle_averted"] >= 1

    def test_deadline_stats_shape(self):
        with JobScheduler(workers=1, deadline_grace=0.25) as sched:
            stats = sched.stats()["deadlines"]
            assert stats["grace_seconds"] == 0.25
            assert stats["running_with_deadline"] == 0
            assert stats["in_grace"] == 0
            assert stats["exceeded_total"] == 0
            assert stats["partial_results_total"] == 0

    def test_negative_grace_is_rejected(self):
        with pytest.raises(ValueError):
            JobScheduler(workers=1, deadline_grace=-0.1)


class TestClientDeadline:
    def test_envelope_carries_deadline_header(self):
        envelope = SubmitEnvelope(scenario="s4-s4", deadline=2.5)
        assert envelope.headers()["X-Deadline-Ms"] == "2500"

    def test_no_deadline_no_header(self):
        assert "X-Deadline-Ms" not in SubmitEnvelope(
            scenario="s4-s4"
        ).headers()

    def test_spent_budget_raises_before_the_wire(self):
        # Nothing listens on this port; a pre-wire deadline check must
        # fail fast instead of burning retries against it.
        client = ServiceClient("http://127.0.0.1:9")
        started = time.monotonic()
        with pytest.raises(ClientDeadlineExceededError):
            client.submit("s4-s4", deadline=0.0)
        assert time.monotonic() - started < 1.0

    def test_client_deadline_error_is_a_timeout(self):
        assert issubclass(ClientDeadlineExceededError, TimeoutError)
        error = ClientDeadlineExceededError("late", deadline=1.5)
        assert error.status == 504
        assert error.deadline == 1.5


@pytest.fixture()
def service():
    scheduler = JobScheduler(workers=2, max_queue=8, deadline_grace=5.0)
    server = make_server(scheduler, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server, scheduler
    finally:
        server.shutdown()
        server.server_close()
        scheduler.close(wait=True, timeout=5.0)
        thread.join(timeout=5.0)


class TestDeadlineOverHTTP:
    def test_header_becomes_the_job_timeout(self, service):
        server, scheduler = service
        client = ServiceClient(server.url)
        job = client.submit("s4-s4", kind="assess", deadline=30.0)
        assert scheduler.job(job["id"]).timeout == pytest.approx(30.0)
        client.result(job["id"], deadline=60)

    def test_explicit_timeout_beats_the_header(self, service):
        server, scheduler = service
        client = ServiceClient(server.url)
        job = client.submit(
            "s4-s4", kind="estimate", quality="low",
            timeout=45.0, deadline=30.0,
        )
        assert scheduler.job(job["id"]).timeout == pytest.approx(45.0)

    def test_malformed_header_is_400(self, service):
        server, _ = service
        import json
        import urllib.error
        import urllib.request

        request = urllib.request.Request(
            f"{server.url}/jobs",
            data=json.dumps({"scenario": "s4-s4"}).encode(),
            method="POST",
            headers={
                "Content-Type": "application/json",
                "X-Deadline-Ms": "soon",
            },
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 400

    def test_polling_stops_at_the_deadline(self, service):
        server, scheduler = service
        release, started = threading.Event(), threading.Event()

        def payload(job):
            started.set()
            release.wait(5.0)
            return {"ok": True}

        job = scheduler.submit_callable(payload)
        assert started.wait(5.0)
        client = ServiceClient(server.url)
        try:
            began = time.monotonic()
            with pytest.raises(ClientDeadlineExceededError) as excinfo:
                client.result(job.id, deadline=0.3)
            assert excinfo.value.deadline == 0.3
            assert time.monotonic() - began < 2.0
        finally:
            release.set()
