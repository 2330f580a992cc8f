"""Crash recovery: replay the job journal against the report store.

On startup a journal-backed :class:`~repro.service.JobScheduler` hands
its journal to a :class:`RecoveryManager`, which

1. **replays** every decodable record (torn tails are counted and
   skipped, WAL-style) into per-job state — last record wins, with a
   ``submitted`` re-statement resetting an earlier ``dispatched`` flag,
2. **settles from the store** any job that never journalled a terminal
   record but whose result document is already spooled (the crash hit
   between the store write and the ``settled`` append),
3. **re-enqueues** every other unsettled job — rebuilding assess/
   estimate payloads from the recorded scenario reference + seed, and
   callable payloads through the scheduler's payload resolver; jobs
   that were ``dispatched`` when the process died are marked
   *interrupted* and re-executed idempotently (results are
   content-addressed, so a duplicate execution converges on the same
   store entry),
4. **re-detects lost results**: a ``settled done`` record whose store
   entry has vanished (quarantined, deleted) is re-enqueued
   when its submission record still allows a rebuild,
5. **checkpoints and compacts**: live jobs are re-stated into the fresh
   active segment, a bounded window of settled jobs is re-stated so the
   idempotency-key dedup window survives the restart, and every
   pre-restart segment is deleted.

The manager also works **offline** — ``efes recover --dry-run`` calls
:meth:`inspect` (no writes at all) and ``efes recover`` calls
:meth:`compact_offline` to checkpoint + compact a journal without
starting a service.
"""

from __future__ import annotations

import dataclasses

from .journal import JobJournal, settled_record

#: How many idempotency keys the scheduler remembers, and so how many
#: settled jobs recovery re-states at compaction: a key the scheduler
#: would still dedup must survive a restart (``GET /jobs/<id>`` keeps
#: answering for it too).  Older settlements fall back to the
#: content-addressed store, which still makes their re-execution free.
IDEMPOTENCY_WINDOW = 256


@dataclasses.dataclass
class ReplayedJob:
    """The journal's net knowledge about one job after replay."""

    job_id: str
    submitted: dict | None = None
    dispatched: bool = False
    settled: dict | None = None

    @property
    def is_settled(self) -> bool:
        return self.settled is not None

    @property
    def store_key(self) -> str | None:
        for record in (self.settled, self.submitted):
            if record is not None and record.get("store_key"):
                return record["store_key"]
        return None

    @property
    def idempotency_key(self) -> str | None:
        for record in (self.settled, self.submitted):
            if record is not None and record.get("idempotency_key"):
                return record["idempotency_key"]
        return None

    def field(self, name: str, default=None):
        for record in (self.settled, self.submitted):
            if record is not None and record.get(name) is not None:
                return record[name]
        return default


@dataclasses.dataclass
class JournalReplay:
    """Replay output: ordered per-job state + damage statistics."""

    jobs: dict[str, ReplayedJob]
    records: int = 0
    segments: int = 0
    torn_records: int = 0


class RecoveryManager:
    """Replays a :class:`JobJournal` and re-enacts its live jobs."""

    def __init__(self, journal: JobJournal, store=None) -> None:
        self.journal = journal
        self.store = store
        self.last_summary: dict | None = None

    # -- replay ------------------------------------------------------------

    def replay(self) -> JournalReplay:
        records, stats = self.journal.replay()
        jobs: dict[str, ReplayedJob] = {}
        for record in records:
            job_id = record.get("job_id")
            kind = record.get("type")
            if not job_id or kind not in (
                "submitted", "dispatched", "settled"
            ):
                continue
            state = jobs.get(job_id)
            if state is None:
                state = jobs[job_id] = ReplayedJob(job_id)
            if state.is_settled:
                continue  # terminal is terminal; ignore stragglers
            if kind == "submitted":
                state.submitted = record
                # A re-statement after recovery means "queued again".
                state.dispatched = False
            elif kind == "dispatched":
                state.dispatched = True
            else:
                state.settled = record
        return JournalReplay(
            jobs=jobs,
            records=stats["records"],
            segments=stats["segments"],
            torn_records=stats["torn_records"],
        )

    # -- planning ----------------------------------------------------------

    def plan(self, replay: JournalReplay) -> dict:
        """Sort replayed jobs into the actions recovery will take."""
        resubmit: list[ReplayedJob] = []
        complete_from_store: list[ReplayedJob] = []
        terminal: list[ReplayedJob] = []
        results_lost = 0
        for state in replay.jobs.values():
            if state.is_settled:
                if (
                    state.settled.get("state") == "done"
                    and state.store_key
                    and self.store is not None
                    and not self.store.contains(state.store_key)
                    and state.submitted is not None
                ):
                    # The journal promised a result the store no longer
                    # has — recover it by re-executing.
                    results_lost += 1
                    resubmit.append(state)
                else:
                    terminal.append(state)
                continue
            if state.submitted is None:
                continue  # dispatched/settled orphan: nothing to rebuild
            if (
                state.store_key
                and self.store is not None
                and self.store.contains(state.store_key)
            ):
                complete_from_store.append(state)
            else:
                resubmit.append(state)
        # Only the most recent settlements are re-stated at compaction.
        checkpoint = terminal[-IDEMPOTENCY_WINDOW:]
        return {
            "resubmit": resubmit,
            "complete_from_store": complete_from_store,
            "terminal": terminal,
            "checkpoint": checkpoint,
            "results_lost": results_lost,
        }

    # -- enactment ---------------------------------------------------------

    def recover(self, scheduler) -> dict:
        """Full startup recovery against a live scheduler.

        Journal writes here propagate on failure: the re-statements and
        checkpoints must be durably in the fresh segment before
        :meth:`JobJournal.compact` deletes the segments they came from,
        so a failing journal aborts recovery with the old segments — and
        therefore every job — intact for the next attempt.
        """
        replay = self.replay()
        plan = self.plan(replay)
        completed = resubmitted = interrupted = unrecoverable = 0
        for state in plan["checkpoint"]:
            scheduler._register_replayed_terminal(state)
            self.journal.append(self._checkpoint_record(state), durable=False)
        for state in plan["complete_from_store"] + plan["resubmit"]:
            if not state.is_settled and scheduler._complete_replayed_from_store(
                state
            ):
                completed += 1
                continue
            if scheduler._resubmit_replayed(state):
                resubmitted += 1
                if state.dispatched:
                    interrupted += 1
            else:
                unrecoverable += 1
        self.journal.flush()
        compacted = self.journal.compact()
        summary = self._summary(
            replay,
            plan,
            interrupted=interrupted,
            unrecoverable=unrecoverable,
            compacted=compacted,
            completed=completed,
            resubmitted=resubmitted,
        )
        self.last_summary = summary
        return summary

    def inspect(self) -> dict:
        """Dry run: replay + plan, zero writes (``efes recover --dry-run``)."""
        replay = self.replay()
        plan = self.plan(replay)
        summary = self._summary(
            replay,
            plan,
            interrupted=sum(
                1 for state in plan["resubmit"] if state.dispatched
            ),
            unrecoverable=0,
            compacted=0,
            dry_run=True,
        )
        self.last_summary = summary
        return summary

    def compact_offline(self) -> dict:
        """Checkpoint + compact without a scheduler (``efes recover``).

        Live jobs are re-stated as ``submitted`` records (still marked
        recovered, still unsettled — the next ``efes serve`` will run
        them), the settled window is re-stated, and stale segments are
        deleted.
        """
        replay = self.replay()
        plan = self.plan(replay)
        for state in plan["checkpoint"]:
            self.journal.append(
                self._checkpoint_record(state), durable=False
            )
        for state in plan["resubmit"] + plan["complete_from_store"]:
            record = dict(state.submitted)
            record["recovered"] = True
            self.journal.append(record, durable=False)
        self.journal.flush()
        compacted = self.journal.compact()
        summary = self._summary(
            replay,
            plan,
            interrupted=sum(
                1 for state in plan["resubmit"] if state.dispatched
            ),
            unrecoverable=0,
            compacted=compacted,
        )
        self.last_summary = summary
        return summary

    @staticmethod
    def _checkpoint_record(state: ReplayedJob) -> dict:
        settled = state.settled or {}
        return settled_record(
            state.job_id,
            settled.get("state", "failed"),
            error=settled.get("error"),
            store_key=state.store_key,
            from_store=bool(settled.get("from_store")),
            idempotency_key=state.idempotency_key,
            kind=state.field("kind"),
            scenario=state.field("scenario"),
            checkpoint=True,
        )

    def _summary(
        self,
        replay: JournalReplay,
        plan: dict,
        *,
        interrupted: int,
        unrecoverable: int,
        compacted: int,
        completed: int | None = None,
        resubmitted: int | None = None,
        dry_run: bool = False,
    ) -> dict:
        return {
            "segments": replay.segments,
            "records": replay.records,
            "torn_records": replay.torn_records,
            "jobs_seen": len(replay.jobs),
            "settled": len(plan["terminal"]),
            "resubmitted": (
                resubmitted
                if resubmitted is not None
                else len(plan["resubmit"])
            ),
            "interrupted": interrupted,
            "completed_from_store": (
                completed
                if completed is not None
                else len(plan["complete_from_store"])
            ),
            "results_lost": plan["results_lost"],
            "unrecoverable": unrecoverable,
            "checkpointed": len(plan["checkpoint"]),
            "compacted_segments": compacted,
            "dry_run": dry_run,
        }
