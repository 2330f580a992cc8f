"""The assessment service: store, scheduler, and HTTP API."""

from __future__ import annotations

import json
import shutil
import sys
import threading

import pytest

from repro.core import ResultQuality
from repro.core.serialize import (
    estimate_from_dict,
    journal_record_from_line,
    journal_record_to_line,
    reports_from_dict,
)
from repro.service import (
    BackpressureError,
    JobFailedError,
    JobScheduler,
    JobState,
    QueueFullError,
    ReportStore,
    SchedulerClosedError,
    ServiceClient,
    ServiceError,
    job_key,
    make_server,
)


def blocking_payload(release, started=None):
    """A cooperative payload that runs until ``release`` is set."""

    def payload(job):
        if started is not None:
            started.set()
        while not release.wait(0.01):
            job.check_cancelled()
        return {"ok": True}

    return payload


@pytest.fixture()
def scheduler():
    with JobScheduler(workers=1, max_queue=8) as sched:
        yield sched


class TestJobKey:
    def test_kind_and_quality_separate_addresses(self, small_example):
        assess = job_key(small_example, "assess")
        low = job_key(small_example, "estimate", "low_effort")
        high = job_key(small_example, "estimate", "high_quality")
        assert len({assess, low, high}) == 3

    def test_deterministic(self, small_example):
        assert job_key(small_example, "assess") == job_key(
            small_example, "assess"
        )

    def test_name_does_not_affect_the_address(self, small_example):
        import dataclasses

        renamed = dataclasses.replace(small_example, name="renamed")
        assert job_key(renamed, "assess") == job_key(small_example, "assess")


class TestReportStore:
    def test_put_get_and_counters(self):
        store = ReportStore()
        assert store.get("k") is None
        store.put("k", {"a": 1})
        assert store.get("k") == {"a": 1}
        counters = store.metrics.snapshot().counters
        assert counters["store_misses"] == 1
        assert counters["store_puts"] == 1
        assert counters["store_hits"] == 1

    def test_contains_does_not_touch_counters(self):
        store = ReportStore()
        store.put("k", {"a": 1})
        assert store.contains("k")
        assert not store.contains("other")
        counters = store.metrics.snapshot().counters
        assert "store_hits" not in counters
        assert "store_misses" not in counters

    def test_spool_survives_restart(self, tmp_path):
        first = ReportStore(tmp_path)
        first.put("deadbeef", {"estimate": {"total_minutes": 3.0}})
        assert first.spooled_count() == 1

        second = ReportStore(tmp_path)  # a fresh process would look like this
        assert len(second) == 0
        assert second.get("deadbeef") == {"estimate": {"total_minutes": 3.0}}
        assert second.metrics.snapshot().counters["store_hits"] == 1

    def test_torn_spool_entry_is_a_miss(self, tmp_path):
        ReportStore(tmp_path).put("k", {"a": 1})
        path = tmp_path / "k.rec"
        path.write_bytes(path.read_bytes()[:-5])  # crash mid-write
        store = ReportStore(tmp_path)
        assert store.get("k") is None
        assert store.quarantined_count() == 1

    def test_spool_entry_is_one_journal_record(self, tmp_path, monkeypatch):
        dumps = json.dumps
        calls = []

        def counting_dumps(*args, **kwargs):
            calls.append(args)
            return dumps(*args, **kwargs)

        monkeypatch.setattr(json, "dumps", counting_dumps)
        doc = {"estimate": {"total_minutes": 3.0}, "note": "é"}
        ReportStore(tmp_path).put("deadbeef", doc)
        assert len(calls) == 1  # a put serialises the document once
        text = (tmp_path / "deadbeef.rec").read_text(encoding="utf-8")
        record = {"key": "deadbeef", "document": doc}
        assert text == journal_record_to_line(record)
        assert journal_record_from_line(text) == record

    def test_entry_under_another_keys_name_is_quarantined(self, tmp_path):
        store = ReportStore(tmp_path)
        store.put("first", {"a": 1})
        shutil.copy(tmp_path / "first.rec", tmp_path / "second.rec")
        assert store.get("second") is None
        assert (store.quarantine_directory / "second.rec").exists()
        shutil.copy(tmp_path / "first.rec", tmp_path / "second.rec")
        restarted = ReportStore(tmp_path)
        assert restarted.last_recovery == {
            "scanned": 2,
            "valid": 1,
            "quarantined": 1,
        }
        assert restarted.get("second") is None
        assert restarted.get("first") == {"a": 1}

    def test_each_damaged_entry_keeps_its_own_quarantined_file(self, tmp_path):
        """Three damaged entries for one key, quarantined one after the
        other, leave three files: none overwrites an earlier one."""
        for damage in (b"garbage", b"", b"0000 {}"):
            (tmp_path / "k.rec").write_bytes(damage)
            assert ReportStore(tmp_path).get("k") is None
        store = ReportStore(tmp_path)
        assert store.quarantined_count() == 3
        quarantined = sorted(store.quarantine_directory.iterdir())
        assert [path.name for path in quarantined] == [
            "k.1.rec",
            "k.2.rec",
            "k.rec",
        ]
        assert sorted(path.read_bytes() for path in quarantined) == [
            b"",
            b"0000 {}",
            b"garbage",
        ]

    def test_concurrent_quarantines_keep_every_file(self, tmp_path):
        """Threads that damage and read one key at once: every quarantine
        the store counts leaves a file of its own."""
        store = ReportStore(tmp_path)
        path = tmp_path / "k.rec"

        def damage_and_read(index):
            for round_index in range(25):
                path.write_text(f"garbage {index} {round_index}")
                store.get("k")

        threads = [
            threading.Thread(target=damage_and_read, args=(index,))
            for index in range(8)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        counted = store.metrics.snapshot().counters["store_quarantined"]
        assert counted == store.quarantined_count() > 0


class TestScheduler:
    def test_estimate_job_round_trip(self, small_example, efes):
        with JobScheduler(workers=2) as sched:
            job = sched.submit(small_example, "estimate", "high")
            job = sched.wait(job.id, timeout=120)
            assert job.state is JobState.DONE
            restored = estimate_from_dict(job.result["estimate"])
        expected = efes.estimate(small_example, ResultQuality.HIGH_QUALITY)
        assert restored == expected

    def test_assess_job_round_trip(self, small_example, efes):
        with JobScheduler(workers=1) as sched:
            job = sched.submit(small_example, "assess")
            job = sched.wait(job.id, timeout=120)
            assert job.state is JobState.DONE
            restored = reports_from_dict(job.result["reports"])
        assert restored == efes.assess(small_example)

    def test_second_submission_served_from_store(self, small_example):
        with JobScheduler(workers=1) as sched:
            first = sched.submit(small_example, "estimate", "high")
            first = sched.wait(first.id, timeout=120)
            assert first.state is JobState.DONE
            assert not first.from_store

            second = sched.submit(small_example, "estimate", "high")
            # Born DONE: no queueing, no recomputation.
            assert second.state is JobState.DONE
            assert second.from_store
            assert second.result == first.result
            counters = sched.metrics.snapshot().counters
            assert counters["jobs_from_store"] == 1
            assert counters["store_hits"] == 1
            assert sched.stats()["completed_jobs"] == 1

    def test_unknown_kind_rejected(self, small_example, scheduler):
        with pytest.raises(ValueError, match="unknown job kind"):
            scheduler.submit(small_example, "transmogrify")

    @pytest.mark.parametrize(
        "quality, value",
        [
            (None, "high_quality"),
            ("high", "high_quality"),
            ("high_quality", "high_quality"),
            (ResultQuality.HIGH_QUALITY, "high_quality"),
            ("low", "low_effort"),
            ("low_effort", "low_effort"),
            (ResultQuality.LOW_EFFORT, "low_effort"),
        ],
    )
    def test_quality_spellings_keep_their_job_keys(
        self, small_example, scheduler, quality, value
    ):
        job = scheduler.submit(small_example, "estimate", quality)
        assert job.quality == value
        assert job.store_key == job_key(small_example, "estimate", value)

    @pytest.mark.parametrize("quality", ["bogus", "hq", "", 1, ["low"]])
    def test_unknown_quality_rejected(self, small_example, scheduler, quality):
        with pytest.raises(ValueError, match="unknown quality"):
            scheduler.submit(small_example, "estimate", quality)
        assert scheduler.jobs() == []

    @pytest.mark.parametrize(
        "timeout", ["5", True, 0, -1, float("nan"), float("inf")]
    )
    def test_bad_timeout_rejected(self, small_example, scheduler, timeout):
        # Accepted, such a timeout used to raise in the dispatcher thread
        # when the job started, leaving every later job queued forever.
        with pytest.raises((TypeError, ValueError), match="timeout"):
            scheduler.submit(small_example, "assess", timeout=timeout)
        with pytest.raises((TypeError, ValueError), match="timeout"):
            scheduler.submit_callable(lambda job: {}, timeout=timeout)
        with pytest.raises((TypeError, ValueError), match="timeout"):
            JobScheduler(default_timeout=timeout)
        assert scheduler.jobs() == []
        job = scheduler.submit_callable(lambda job: {"ok": True}, timeout=5)
        assert scheduler.wait(job.id, timeout=10).state is JobState.DONE

    def test_queue_saturation_is_explicit_backpressure(self):
        release, started = threading.Event(), threading.Event()
        with JobScheduler(workers=1, max_queue=1) as sched:
            running = sched.submit_callable(
                blocking_payload(release, started), name="running"
            )
            assert started.wait(5.0)
            queued = sched.submit_callable(
                blocking_payload(release), name="queued"
            )
            with pytest.raises(QueueFullError) as excinfo:
                sched.submit_callable(blocking_payload(release), name="third")
            assert excinfo.value.retry_after >= 1.0
            assert excinfo.value.depth == 1
            assert sched.metrics.snapshot().counters["jobs_rejected"] == 1

            release.set()
            assert sched.wait(running.id, timeout=10).state is JobState.DONE
            assert sched.wait(queued.id, timeout=10).state is JobState.DONE

    def test_timeout_fails_the_job_and_frees_the_slot(self, scheduler):
        release = threading.Event()
        stuck = scheduler.submit_callable(
            blocking_payload(release), name="stuck", timeout=0.2
        )
        stuck = scheduler.wait(stuck.id, timeout=10)
        assert stuck.state is JobState.FAILED
        assert "timed out after 0.2s" in stuck.error
        assert scheduler.metrics.snapshot().counters["jobs_timeout"] == 1

        # The slot is free again: new work still runs to completion.
        after = scheduler.submit_callable(lambda job: {"ok": True})
        assert scheduler.wait(after.id, timeout=10).state is JobState.DONE
        release.set()

    def test_cancel_queued_job(self, scheduler):
        release, started = threading.Event(), threading.Event()
        scheduler.submit_callable(blocking_payload(release, started))
        assert started.wait(5.0)
        ran = []
        queued = scheduler.submit_callable(
            lambda job: ran.append(job.id) or {"ok": True}
        )
        cancelled = scheduler.cancel(queued.id)
        assert cancelled.state is JobState.CANCELLED
        release.set()
        scheduler.wait(queued.id, timeout=10)
        assert ran == []

    def test_cancel_running_job(self, scheduler):
        release, started = threading.Event(), threading.Event()
        job = scheduler.submit_callable(blocking_payload(release, started))
        assert started.wait(5.0)
        scheduler.cancel(job.id)
        job = scheduler.wait(job.id, timeout=10)
        assert job.state is JobState.CANCELLED
        assert scheduler.metrics.snapshot().counters["jobs_cancelled"] == 1

    def test_priority_orders_the_queue(self, scheduler):
        release, started = threading.Event(), threading.Event()
        scheduler.submit_callable(blocking_payload(release, started))
        assert started.wait(5.0)
        order = []
        low = scheduler.submit_callable(
            lambda job: order.append("low") or {}, priority=0
        )
        high = scheduler.submit_callable(
            lambda job: order.append("high") or {}, priority=5
        )
        release.set()
        scheduler.wait(low.id, timeout=10)
        scheduler.wait(high.id, timeout=10)
        assert order == ["high", "low"]

    def test_failing_payload_is_isolated(self, scheduler):
        def explode(job):
            raise ValueError("boom")

        job = scheduler.submit_callable(explode)
        job = scheduler.wait(job.id, timeout=10)
        assert job.state is JobState.FAILED
        assert job.error == "ValueError: boom"

    def test_closed_scheduler_rejects_submissions(self):
        sched = JobScheduler(workers=1)
        sched.close()
        with pytest.raises(SchedulerClosedError):
            sched.submit_callable(lambda job: {})

    def test_spooled_store_skips_recompute_across_schedulers(
        self, small_example, tmp_path
    ):
        with JobScheduler(
            workers=1, store=ReportStore(tmp_path)
        ) as first:
            job = first.submit(small_example, "estimate", "high")
            result = first.wait(job.id, timeout=120).result
        # A brand-new scheduler (fresh process, same spool) serves the
        # identical content without running the pipeline.
        with JobScheduler(
            workers=1, store=ReportStore(tmp_path)
        ) as second:
            job = second.submit(small_example, "estimate", "high")
            assert job.from_store
            assert job.result == result
            assert second.stats()["completed_jobs"] == 0


def _refuse_to_build(seed):
    raise AssertionError("the scenario should have come from the cache")


@pytest.fixture()
def service():
    scheduler = JobScheduler(workers=2, max_queue=8)
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


class TestHTTPService:
    def test_full_submit_poll_result_cycle(self, service):
        server, _ = service
        client = ServiceClient(server.url)
        assert client.healthz()["status"] == "ok"

        job = client.submit("s4-s4", kind="estimate", quality="high")
        assert job["state"] in ("queued", "running", "done")
        doc = client.result(job["id"], deadline=120)
        estimate = estimate_from_dict(doc["estimate"])
        assert estimate.total_minutes > 0
        assert client.status(job["id"])["state"] == "done"
        assert any(j["id"] == job["id"] for j in client.jobs())

    def test_duplicate_content_hits_the_store(self, service):
        server, _ = service
        client = ServiceClient(server.url)
        first = client.submit("s4-s4", kind="assess")
        client.result(first["id"], deadline=120)

        second = client.submit("s4-s4", kind="assess")
        assert second["state"] == "done"
        assert second["from_store"]
        metrics = client.metrics()
        assert metrics["counters"]["store_hits"] >= 1
        assert metrics["counters"]["jobs_from_store"] == 1
        assert metrics["scheduler"]["queue_depth"] == 0
        assert metrics["store"]["entries"] >= 1

    def test_unknown_scenario_is_404(self, service):
        server, _ = service
        with pytest.raises(ServiceError) as excinfo:
            ServiceClient(server.url).submit("not-a-scenario")
        assert excinfo.value.status == 404
        assert "unknown scenario" in str(excinfo.value)

    def test_unknown_quality_is_400(self, service):
        server, scheduler = service
        with pytest.raises(ServiceError) as excinfo:
            ServiceClient(server.url).submit("s4-s4", quality="bogus")
        assert excinfo.value.status == 400
        assert "high, high_quality, low, low_effort" in str(excinfo.value)
        assert scheduler.jobs() == []

    def test_scenarios_resolve_through_one_cache(self, service, monkeypatch):
        from repro.scenarios import SCENARIO_BUILDERS, ScenarioCache

        server, _ = service
        assert isinstance(server.scenarios, ScenarioCache)
        job = ServiceClient(server.url).submit("s4-s4", kind="assess", seed=5)
        # The POST built seed 5's whole catalogue into the server's cache.
        for name in SCENARIO_BUILDERS:
            monkeypatch.setitem(SCENARIO_BUILDERS, name, _refuse_to_build)
        catalogue = server.scenarios.catalogue(5)
        assert list(catalogue) == list(SCENARIO_BUILDERS)
        assert job["scenario"] == "s4-s4"

    def test_unknown_job_is_404(self, service):
        server, _ = service
        with pytest.raises(ServiceError) as excinfo:
            ServiceClient(server.url).status("nope")
        assert excinfo.value.status == 404

    def test_pending_result_does_not_block_when_wait_is_off(self, service):
        server, scheduler = service
        release, started = threading.Event(), threading.Event()
        job = scheduler.submit_callable(blocking_payload(release, started))
        assert started.wait(5.0)
        client = ServiceClient(server.url)
        with pytest.raises(TimeoutError):
            client.result(job.id, wait=False)
        release.set()

    def test_cancel_over_http(self, service):
        server, scheduler = service
        release, started = threading.Event(), threading.Event()
        job = scheduler.submit_callable(blocking_payload(release, started))
        assert started.wait(5.0)
        client = ServiceClient(server.url)
        assert client.cancel(job.id)["state"] == "cancelled"
        with pytest.raises(JobFailedError) as excinfo:
            client.result(job.id)
        assert excinfo.value.status == 410
        release.set()

    def test_backpressure_is_503_with_retry_after(self):
        scheduler = JobScheduler(workers=1, max_queue=1)
        server = make_server(scheduler, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        release, started = threading.Event(), threading.Event()
        try:
            scheduler.submit_callable(blocking_payload(release, started))
            assert started.wait(5.0)
            scheduler.submit_callable(blocking_payload(release))
            with pytest.raises(BackpressureError) as excinfo:
                ServiceClient(server.url).submit("s4-s4")
            assert excinfo.value.status == 503
            assert excinfo.value.retry_after >= 1.0
        finally:
            release.set()
            server.shutdown()
            server.server_close()
            scheduler.close(wait=True, timeout=5.0)
            thread.join(timeout=5.0)

    def test_bad_request_body_is_400(self, service):
        server, _ = service
        import urllib.request

        request = urllib.request.Request(
            f"{server.url}/jobs",
            data=b"not json",
            method="POST",
            headers={"Content-Type": "application/json"},
        )
        import urllib.error

        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400
