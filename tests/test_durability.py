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
from repro.service.jobs import Job, JobState, QueueFullError
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

    def test_offline_recover_restates_live_jobs(self, tmp_path):
        with JobJournal(tmp_path) as journal:
            journal.append(_submitted("live", payload_ref="ref"))
            journal.append(_submitted("done"))
            journal.append(settled_record("done", "done"))
        manager = RecoveryManager(JobJournal(tmp_path))
        summary, _ = manager.recover()
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

    def test_recovered_jobs_skip_the_queue_capacity_check(self, tmp_path):
        with JobJournal(tmp_path) as journal:
            for job_id in ("a", "b"):
                journal.append(_submitted(job_id, payload_ref=job_id))
        calls: list[str] = []
        scheduler = JobScheduler(
            workers=1,
            max_queue=0,
            journal=JobJournal(tmp_path),
            payload_resolver=self._resolver(calls),
        )
        try:
            for job_id in ("a", "b"):
                job = scheduler.wait(job_id, timeout=10)
                assert job.state is JobState.DONE
            assert sorted(calls) == ["a", "b"]
            # A submission still meets the (zero) capacity.
            with pytest.raises(QueueFullError):
                scheduler.submit_callable(lambda job: {}, payload_ref="c")
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
            # /healthz reports the journal and recovery once, from stats.
            assert set(scheduler.health_snapshot()) == {
                "state", "reasons", "resources",
            }
        finally:
            scheduler.close()


class TestRecoveryOutcomes:
    """One journal holds a job of each recovery outcome; a starting
    scheduler and ``efes recover`` each recover a copy of it.  The
    journal recovery leaves behind, the admitted jobs and both summaries
    are pinned."""

    UNRECOVERABLE = (
        "unrecoverable after crash: payload could not be rebuilt from "
        "the journal"
    )

    @pytest.fixture
    def crashed(self, tmp_path):
        """The journal and spool a crashed ``efes serve`` left behind."""
        journal_dir, spool = tmp_path / "journal", tmp_path / "spool"
        ReportStore(spool).put("sk-spooled", {"kind": "assess"})
        jobs = [
            (Job("callable", "settled", id="settled",
                 idempotency_key="key-settled"), {"payload_ref": "settled"}),
            (Job("assess", "example", id="spooled", store_key="sk-spooled"),
             {"scenario_ref": "example", "seed": 1}),
            (Job("callable", "queued", id="queued", priority=1),
             {"payload_ref": "queued"}),
            (Job("callable", "dispatched", id="dispatched", timeout=30.0),
             {"payload_ref": "dispatched"}),
            (Job("assess", "example", id="lost", store_key="sk-lost",
                 idempotency_key="key-lost"),
             {"scenario_ref": "example", "seed": 1}),
            (Job("estimate", "nowhere", quality="high_quality",
                 id="unresolvable"), {"scenario_ref": "nowhere"}),
        ]
        with JobJournal(journal_dir) as journal:
            for job, refs in jobs:
                journal.append(submitted_record(job, **refs))
            for job_id in ("settled", "spooled", "dispatched", "lost"):
                journal.append(dispatched_record(job_id))
            journal.append(settled_record(
                "settled", "done", idempotency_key="key-settled",
                kind="callable", scenario="settled",
            ))
            journal.append(settled_record(
                "lost", "done", store_key="sk-lost",
                idempotency_key="key-lost", kind="assess", scenario="example",
            ))
        return journal_dir, spool

    @staticmethod
    def _journal_by_job(directory) -> dict:
        records, _ = JobJournal(directory).replay()
        by_job: dict[str, list] = {}
        for record in records:
            by_job.setdefault(record["job_id"], []).append(
                {key: value for key, value in record.items() if key != "ts"}
            )
        return by_job

    @staticmethod
    def _restated(job_id, kind, scenario, **fields) -> list:
        record = {
            "type": "submitted", "job_id": job_id, "kind": kind,
            "scenario": scenario, "quality": None, "priority": 0,
            "timeout": None, "store_key": None, "correlation_id": job_id,
            "idempotency_key": None, **fields, "recovered": True,
        }
        return [record]

    def _live(self) -> dict:
        """The re-statements of the jobs recovery leaves unsettled."""
        return {
            "queued": self._restated(
                "queued", "callable", "queued", priority=1,
                payload_ref="queued",
            ),
            "dispatched": self._restated(
                "dispatched", "callable", "dispatched", timeout=30.0,
                payload_ref="dispatched",
            ),
            "lost": self._restated(
                "lost", "assess", "example", store_key="sk-lost",
                idempotency_key="key-lost", scenario_ref="example", seed=1,
            ),
        }

    SETTLED = [{
        "type": "settled", "job_id": "settled", "state": "done",
        "idempotency_key": "key-settled", "kind": "callable",
        "scenario": "settled",
    }]

    def test_a_starting_scheduler_settles_or_requeues_each_job(self, crashed):
        journal_dir, spool = crashed
        calls: list[str] = []

        def payload_resolver(ref, job):
            if ref == "settled":  # never asked: the job is settled
                raise AssertionError(ref)
            return lambda job: calls.append(ref) or {"ref": ref}

        # The journal dies after recovery's six appends, so it keeps
        # exactly what recovery wrote while the requeued jobs run on.
        journal = JobJournal(
            journal_dir,
            failpoint=lambda index, line: (
                ("ok", 0) if index < 6 else ("crash", 0)
            ),
        )
        scheduler = JobScheduler(
            workers=1,
            journal=journal,
            store=ReportStore(spool),
            payload_resolver=payload_resolver,
            trace=False,
        )
        try:
            jobs = {
                job.id: scheduler.wait(job.id, timeout=60)
                for job in scheduler.jobs()
            }
            summary = scheduler.recovery_summary
        finally:
            scheduler.close()
        assert {
            job_id: (
                job.state.value, job.from_store, job.recovered,
                job.interrupted,
            )
            for job_id, job in jobs.items()
        } == {
            "settled": ("done", False, True, False),
            "spooled": ("done", True, True, False),
            "queued": ("done", False, True, False),
            "dispatched": ("done", False, True, True),
            "lost": ("done", False, True, False),
            "unresolvable": ("failed", False, True, False),
        }
        assert jobs["unresolvable"].error == self.UNRECOVERABLE
        assert sorted(calls) == ["dispatched", "queued"]
        assert jobs["lost"].result["kind"] == "assess"
        assert self._journal_by_job(journal_dir) == {
            "settled": self.SETTLED,
            "spooled": [{
                "type": "settled", "job_id": "spooled", "state": "done",
                "store_key": "sk-spooled", "from_store": True,
                "kind": "assess", "scenario": "example",
            }],
            **self._live(),
            "unresolvable": [{
                "type": "settled", "job_id": "unresolvable",
                "state": "failed", "error": self.UNRECOVERABLE,
                "kind": "estimate", "scenario": "nowhere",
            }],
        }
        assert summary == {
            "segments": 1, "records": 12, "torn_records": 0,
            "jobs_seen": 6, "settled": 1, "resubmitted": 3,
            "interrupted": 1, "completed_from_store": 1, "results_lost": 1,
            "unrecoverable": 1, "checkpointed": 1, "compacted_segments": 1,
            "dry_run": False,
        }

    def test_efes_recover_restates_each_live_job(self, crashed, capsys):
        from repro.cli import main

        journal_dir, spool = crashed
        assert main(["recover", str(journal_dir), "--spool", str(spool)]) == 0
        lines = capsys.readouterr().out.splitlines()[1:]
        assert dict(line.split() for line in lines) == {
            "segments": "1", "records": "12", "torn_records": "0",
            "jobs_seen": "6", "settled": "1", "resubmitted": "4",
            "interrupted": "1", "completed_from_store": "1",
            "results_lost": "1", "checkpointed": "1",
            "compacted_segments": "1",
        }
        assert self._journal_by_job(journal_dir) == {
            "settled": self.SETTLED,
            "spooled": self._restated(
                "spooled", "assess", "example", store_key="sk-spooled",
                scenario_ref="example", seed=1,
            ),
            **self._live(),
            "unresolvable": self._restated(
                "unresolvable", "estimate", "nowhere",
                quality="high_quality", scenario_ref="nowhere",
            ),
        }
