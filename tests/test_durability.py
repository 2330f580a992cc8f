"""Unit tests for the durable job journal and crash recovery.

The adversarial end of this feature lives in ``tests/sim/`` (seeded
crash matrix, real-process ``kill -9``); this module pins the
component-level contracts: journal segments and rotation, flush
policies, replay/plan categories and the restart-surviving idempotency
window.
"""

from __future__ import annotations

import pytest

from repro.durability import (
    FlushPolicy,
    JobJournal,
    JournalCrashed,
    JournalError,
    RecoveryManager,
    dispatched_record,
    settled_record,
    submitted_record,
)
from repro.durability.recovery import IDEMPOTENCY_WINDOW
from repro.service.jobs import Job, JobState
from repro.service.scheduler import JobScheduler
from repro.service.store import ReportStore


def _submitted(job_id: str, **extra) -> dict:
    job = Job(kind="callable", scenario_name=job_id, id=job_id)
    record = submitted_record(job, **extra)
    return record


class TestFlushPolicy:
    def test_parse_spellings(self):
        assert FlushPolicy.parse("strict") == FlushPolicy.strict()
        assert FlushPolicy.parse("none") == FlushPolicy.relaxed()
        assert FlushPolicy.parse("batch") == FlushPolicy.batched()
        assert FlushPolicy.parse("batch:3").fsync_every_records == 3

    @pytest.mark.parametrize("bad", ["", "batch:", "batch:zero", "batch:0", "often"])
    def test_parse_rejects_garbage(self, bad):
        with pytest.raises(ValueError):
            FlushPolicy.parse(bad)


class TestJobJournal:
    def test_append_replay_round_trip(self, tmp_path):
        with JobJournal(tmp_path) as journal:
            journal.append(_submitted("a", payload_ref="ref-a"))
            journal.append(dispatched_record("a"))
            journal.append(settled_record("a", "done"))
        records, stats = JobJournal(tmp_path).replay()
        assert [r["type"] for r in records] == [
            "submitted", "dispatched", "settled",
        ]
        assert stats == {"segments": 1, "records": 3, "torn_records": 0}

    def test_segments_rotate_and_reopen_fresh(self, tmp_path):
        with JobJournal(tmp_path, segment_max_records=2) as journal:
            for index in range(5):
                journal.append(dispatched_record(str(index)))
            assert journal.rotations == 2
        assert len(list(tmp_path.glob("journal-*.wal"))) == 3
        # Reopening appends into a *new* segment, never an old tail.
        with JobJournal(tmp_path, segment_max_records=2) as journal:
            journal.append(dispatched_record("5"))
            assert journal.stats()["active_segment"] == 4

    def test_torn_tail_is_skipped_not_fatal(self, tmp_path):
        with JobJournal(tmp_path) as journal:
            journal.append(dispatched_record("a"))
            journal.append(dispatched_record("b"))
        segment = next(tmp_path.glob("journal-*.wal"))
        text = segment.read_text(encoding="utf-8")
        segment.write_text(text[: len(text) - 4], encoding="utf-8")
        records, stats = JobJournal(tmp_path).replay()
        assert [r["job_id"] for r in records] == ["a"]
        assert stats["torn_records"] == 1

    def test_torn_tail_in_old_segment_spares_later_ones(self, tmp_path):
        with JobJournal(tmp_path, segment_max_records=1) as journal:
            journal.append(dispatched_record("a"))
            journal.append(dispatched_record("b"))
        first = sorted(tmp_path.glob("journal-*.wal"))[0]
        first.write_text(
            first.read_text(encoding="utf-8")[:-5], encoding="utf-8"
        )
        records, stats = JobJournal(tmp_path).replay()
        # Segment 1's record is torn; segment 2's survives.
        assert [r["job_id"] for r in records] == ["b"]
        assert stats["torn_records"] == 1

    def test_compact_removes_only_stale_segments(self, tmp_path):
        with JobJournal(tmp_path) as journal:
            journal.append(dispatched_record("old"))
        journal = JobJournal(tmp_path)
        journal.append(dispatched_record("new"))
        assert journal.compact() == 1
        journal.close()
        records, _ = JobJournal(tmp_path).replay()
        assert [r["job_id"] for r in records] == ["new"]

    def test_batched_policy_lags_then_flushes(self, tmp_path):
        policy = FlushPolicy(
            fsync_on_ack=True, fsync_every_records=100,
            fsync_every_seconds=None,
        )
        with JobJournal(tmp_path, flush=policy) as journal:
            journal.append(dispatched_record("a"), durable=False)
            assert journal.stats()["lag_records"] == 1
            journal.flush()
            assert journal.stats()["lag_records"] == 0
            # Submitted records fsync before returning under fsync_on_ack.
            journal.append(_submitted("b"))
            assert journal.stats()["lag_records"] == 0

    def test_time_based_batch_flush_uses_injected_clock(self, tmp_path):
        clock = [0.0]
        policy = FlushPolicy(
            fsync_on_ack=False, fsync_every_records=0,
            fsync_every_seconds=5.0,
        )
        with JobJournal(
            tmp_path, flush=policy, clock=lambda: clock[0]
        ) as journal:
            journal.append(dispatched_record("a"))
            assert journal.stats()["lag_records"] == 1
            clock[0] = 6.0
            journal.append(dispatched_record("b"))
            assert journal.stats()["lag_records"] == 0

    def test_failpoint_crash_fences_every_later_call(self, tmp_path):
        journal = JobJournal(
            tmp_path, failpoint=lambda index, line: ("crash", 0)
        )
        with pytest.raises(JournalCrashed):
            journal.append(dispatched_record("a"))
        assert journal.crashed
        with pytest.raises(JournalCrashed):
            journal.append(dispatched_record("b"))
        with pytest.raises(JournalCrashed):
            journal.flush()
        assert list(tmp_path.glob("journal-*.wal"))[0].read_text() == ""

    def test_failpoint_torn_leaves_partial_line(self, tmp_path):
        journal = JobJournal(
            tmp_path, failpoint=lambda index, line: ("torn", 7)
        )
        with pytest.raises(JournalCrashed):
            journal.append(dispatched_record("a"))
        segment = next(tmp_path.glob("journal-*.wal"))
        assert len(segment.read_text(encoding="utf-8")) == 7
        records, stats = JobJournal(tmp_path).replay()
        assert records == [] and stats["torn_records"] == 1

    def test_closed_journal_rejects_appends(self, tmp_path):
        journal = JobJournal(tmp_path)
        journal.close()
        with pytest.raises(JournalError):
            journal.append(dispatched_record("a"))


class TestRecoveryPlan:
    def test_never_settled_job_is_resubmitted(self, tmp_path):
        with JobJournal(tmp_path) as journal:
            journal.append(_submitted("a", payload_ref="ref-a"))
        summary = RecoveryManager(JobJournal(tmp_path)).inspect()
        assert summary["resubmitted"] == 1
        assert summary["interrupted"] == 0
        assert summary["dry_run"] is True

    def test_dispatched_job_counts_as_interrupted(self, tmp_path):
        with JobJournal(tmp_path) as journal:
            journal.append(_submitted("a", payload_ref="ref-a"))
            journal.append(dispatched_record("a"))
        summary = RecoveryManager(JobJournal(tmp_path)).inspect()
        assert summary["resubmitted"] == 1
        assert summary["interrupted"] == 1

    def test_settled_job_is_terminal_and_checkpointed(self, tmp_path):
        with JobJournal(tmp_path) as journal:
            journal.append(_submitted("a"))
            journal.append(settled_record("a", "done"))
        summary = RecoveryManager(JobJournal(tmp_path)).inspect()
        assert summary["settled"] == 1
        assert summary["resubmitted"] == 0
        assert summary["checkpointed"] == 1

    def test_store_backed_job_completes_from_store(self, tmp_path):
        store = ReportStore()
        store.put("sk-1", {"answer": 42})
        with JobJournal(tmp_path / "j") as journal:
            record = _submitted("a")
            record["store_key"] = "sk-1"
            journal.append(record)
        manager = RecoveryManager(JobJournal(tmp_path / "j"), store)
        summary = manager.inspect()
        assert summary["completed_from_store"] == 1
        assert summary["resubmitted"] == 0

    def test_settled_done_with_vanished_result_is_results_lost(
        self, tmp_path
    ):
        store = ReportStore()  # empty: the promised result is gone
        with JobJournal(tmp_path / "j") as journal:
            record = _submitted("a", scenario_ref="example", seed=1)
            record["store_key"] = "sk-gone"
            journal.append(record)
            journal.append(
                settled_record("a", "done", store_key="sk-gone")
            )
        summary = RecoveryManager(JobJournal(tmp_path / "j"), store).inspect()
        assert summary["results_lost"] == 1
        assert summary["resubmitted"] == 1
        assert summary["settled"] == 0

    def test_restatement_resets_dispatched_flag(self, tmp_path):
        with JobJournal(tmp_path) as journal:
            journal.append(_submitted("a", payload_ref="ref-a"))
            journal.append(dispatched_record("a"))
            restated = _submitted("a", payload_ref="ref-a", recovered=True)
            journal.append(restated)
        replay = RecoveryManager(JobJournal(tmp_path)).replay()
        assert replay.jobs["a"].dispatched is False

    def test_settled_window_bounds_checkpoints(self, tmp_path):
        with JobJournal(tmp_path) as journal:
            for index in range(IDEMPOTENCY_WINDOW + 3):
                journal.append(_submitted(f"job-{index}"), durable=False)
                journal.append(
                    settled_record(f"job-{index}", "done"), durable=False
                )
        manager = RecoveryManager(JobJournal(tmp_path))
        summary = manager.inspect()
        assert summary["settled"] == IDEMPOTENCY_WINDOW + 3
        assert summary["checkpointed"] == IDEMPOTENCY_WINDOW

    def test_compact_offline_restates_live_jobs(self, tmp_path):
        with JobJournal(tmp_path) as journal:
            journal.append(_submitted("live", payload_ref="ref"))
            journal.append(_submitted("done"))
            journal.append(settled_record("done", "done"))
        manager = RecoveryManager(JobJournal(tmp_path))
        summary = manager.compact_offline()
        assert summary["compacted_segments"] == 1
        # After compaction the journal still knows both jobs.
        replay = RecoveryManager(JobJournal(tmp_path)).replay()
        assert replay.jobs["live"].is_settled is False
        assert replay.jobs["live"].submitted["recovered"] is True
        assert replay.jobs["done"].is_settled


class TestSchedulerRecovery:
    def _resolver(self, calls):
        def payload_resolver(ref, job):
            def payload(inner_job):
                calls.append(ref)
                return {"ref": ref}

            return payload

        return payload_resolver

    def test_unsettled_job_reexecutes_after_restart(self, tmp_path):
        journal = JobJournal(tmp_path)
        journal.append(_submitted("a", payload_ref="ref-a"))
        journal.append(dispatched_record("a"))
        journal.flush()
        journal.close()
        calls: list[str] = []
        scheduler = JobScheduler(
            workers=1,
            journal=JobJournal(tmp_path),
            payload_resolver=self._resolver(calls),
        )
        try:
            job = scheduler.wait("a", timeout=10)
            assert job.state is JobState.DONE
            assert job.recovered and job.interrupted
            assert calls == ["ref-a"]
            assert scheduler.recovery_summary["interrupted"] == 1
        finally:
            scheduler.close()

    def test_idempotency_window_survives_restart(self, tmp_path):
        journal = JobJournal(tmp_path)
        record = _submitted("a", payload_ref="ref-a")
        record["idempotency_key"] = "stable-key"
        journal.append(record)
        journal.flush()
        journal.close()
        calls: list[str] = []
        scheduler = JobScheduler(
            workers=1,
            journal=JobJournal(tmp_path),
            payload_resolver=self._resolver(calls),
        )
        try:
            scheduler.wait("a", timeout=10)
            # The retried client submit dedups onto the recovered job.
            again = scheduler.submit_callable(
                lambda job: {"dup": True},
                payload_ref="ref-a",
                idempotency_key="stable-key",
            )
            assert again.id == "a"
            assert (
                scheduler.metrics.snapshot().counters["jobs_deduplicated"]
                == 1
            )
        finally:
            scheduler.close()

    def test_settled_checkpoint_keeps_dedup_after_restart(self, tmp_path):
        calls: list[str] = []
        scheduler = JobScheduler(
            workers=1,
            journal=JobJournal(tmp_path),
            payload_resolver=self._resolver(calls),
        )
        try:
            job = scheduler.submit_callable(
                lambda j: {"v": 1},
                payload_ref="ref-a",
                idempotency_key="done-key",
            )
            scheduler.wait(job.id, timeout=10)
        finally:
            scheduler.close()
        restarted = JobScheduler(
            workers=1,
            journal=JobJournal(tmp_path),
            payload_resolver=self._resolver(calls),
        )
        try:
            again = restarted.submit_callable(
                lambda j: {"v": 2},
                payload_ref="ref-a",
                idempotency_key="done-key",
            )
            assert again.id == job.id
            assert again.state is JobState.DONE
            assert calls == []  # never re-executed
        finally:
            restarted.close()

    def test_keyed_store_hit_survives_restart(self, tmp_path, small_example):
        journal_dir, spool = tmp_path / "journal", tmp_path / "spool"
        scheduler = JobScheduler(
            workers=1,
            journal=JobJournal(journal_dir, flush=FlushPolicy.strict()),
            store=ReportStore(spool),
        )
        try:
            first = scheduler.submit(small_example, "assess")
            assert scheduler.wait(first.id, timeout=60).state is JobState.DONE
            records = scheduler.journal.appended_records
            keyless = scheduler.submit(small_example, "assess")
            assert keyless.from_store
            # A keyless hit has no retry to honour: nothing is journalled.
            assert scheduler.journal.appended_records == records
            keyed = scheduler.submit(
                small_example, "assess", idempotency_key="key-b"
            )
            assert keyed.from_store and keyed.state is JobState.DONE
            assert scheduler.journal.appended_records == records + 1
        finally:
            scheduler.close()
        # Only the journal and the spool cross the restart.
        restarted = JobScheduler(
            workers=1,
            journal=JobJournal(journal_dir, flush=FlushPolicy.strict()),
            store=ReportStore(spool),
        )
        try:
            assert restarted.recovery_summary["jobs_seen"] == 2
            recovered = restarted.job(keyed.id)
            assert recovered is not None
            assert recovered.state is JobState.DONE and recovered.from_store
            again = restarted.submit(
                small_example, "assess", idempotency_key="key-b"
            )
            assert again.id == keyed.id
        finally:
            restarted.close()

    def test_unresolvable_payload_becomes_failed_tombstone(self, tmp_path):
        journal = JobJournal(tmp_path)
        journal.append(_submitted("a", payload_ref="ref-a"))
        journal.flush()
        journal.close()
        scheduler = JobScheduler(
            workers=1,
            journal=JobJournal(tmp_path),
            payload_resolver=lambda ref, job: None,
        )
        try:
            job = scheduler.job("a")
            assert job is not None
            assert job.state is JobState.FAILED
            assert scheduler.recovery_summary["unrecoverable"] == 1
        finally:
            scheduler.close()

    def test_recovery_compacts_old_segments(self, tmp_path):
        journal = JobJournal(tmp_path)
        journal.append(_submitted("a", payload_ref="ref-a"))
        journal.flush()
        journal.close()
        assert len(list(tmp_path.glob("journal-*.wal"))) == 1
        scheduler = JobScheduler(
            workers=1,
            journal=JobJournal(tmp_path),
            payload_resolver=self._resolver([]),
        )
        try:
            scheduler.wait("a", timeout=10)
            assert scheduler.recovery_summary["compacted_segments"] == 1
        finally:
            scheduler.close()
        # Only post-restart segments remain, and they cover the job.
        replay = RecoveryManager(JobJournal(tmp_path)).replay()
        assert replay.jobs["a"].is_settled

    def test_submit_fails_loudly_when_journal_cannot_append(self, tmp_path):
        journal = JobJournal(
            tmp_path, failpoint=lambda index, line: ("crash", 0)
        )
        scheduler = JobScheduler(workers=1, journal=journal)
        try:
            with pytest.raises(JournalError):
                scheduler.submit_callable(
                    lambda job: {}, payload_ref="ref", idempotency_key="k"
                )
            # The unacknowledged job must not linger as submitted.
            assert scheduler.job("missing") is None
            assert all(
                job.idempotency_key != "k" for job in scheduler.jobs()
            )
        finally:
            scheduler.close(wait=False, timeout=0.0)

    def test_stats_and_health_expose_journal(self, tmp_path):
        scheduler = JobScheduler(workers=1, journal=JobJournal(tmp_path))
        try:
            stats = scheduler.stats()
            assert stats["journal"]["directory"] == str(tmp_path)
            assert stats["recovery"]["dry_run"] is False
            health = scheduler.health_snapshot()
            assert "journal" in health and "recovery" in health
        finally:
            scheduler.close()
