"""Crash recovery: replay the job journal against the report store.

On startup a journal-backed :class:`~repro.service.JobScheduler` hands
its journal to a :class:`RecoveryManager`, whose ``recover``

1. **replays** every decodable record (torn tails are counted and
   skipped, WAL-style) into per-job state — last record wins, with a
   ``submitted`` re-statement resetting an earlier ``dispatched`` flag,
2. **settles from the store** any job that never journalled a terminal
   record but whose result document is already spooled (the crash hit
   between the store write and the ``settled`` append),
3. **re-queues** every other unsettled job — the scheduler's
   ``rebuild`` rebuilds assess/estimate payloads from the recorded
   scenario reference + seed, and callable payloads through its payload
   resolver; jobs that were ``dispatched`` when the process died are
   marked *interrupted* and re-executed idempotently (results are
   content-addressed, so a duplicate execution converges on the same
   store entry), and a job whose payload cannot be rebuilt settles
   ``FAILED``,
4. **re-detects lost results**: a ``settled done`` record whose store
   entry has vanished (quarantined, deleted) is re-queued
   when its submission record still allows a rebuild,
5. **re-states and compacts**: live jobs are re-stated into the fresh
   active segment, a bounded window of settled jobs is re-stated so the
   idempotency-key dedup window survives the restart, and every
   pre-restart segment is deleted.

It returns every replayed job as a :class:`~repro.service.Job`, which
the scheduler admits the way it admits a submission.

The manager also works **offline** — ``efes recover --dry-run`` calls
:meth:`~RecoveryManager.inspect` (no writes at all), and ``efes
recover`` calls :meth:`~RecoveryManager.recover` without a ``rebuild``:
every live job, a spooled one too, is re-stated for the next ``efes
serve`` to settle or run, and the journal is compacted.
"""

from __future__ import annotations

import collections
import dataclasses
import time
from collections.abc import Callable

from .journal import JobJournal, settled_record_of

#: How many idempotency keys the scheduler remembers, and so how many
#: settled jobs recovery re-states at compaction: a key the scheduler
#: would still dedup must survive a restart (``GET /jobs/<id>`` keeps
#: answering for it too).  Older settlements fall back to the
#: content-addressed store, which still makes their re-execution free.
IDEMPOTENCY_WINDOW = 256

#: Error of a replayed job whose payload could not be rebuilt.
UNRECOVERABLE_ERROR = (
    "unrecoverable after crash: payload could not be rebuilt from the journal"
)


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

    def as_job(self):
        """The job as the scheduler admits it: queued, and ``recovered``."""
        # Imported here: repro.service imports this package.
        from ..service.jobs import Job

        submitted = self.submitted or {}
        return Job(
            kind=self.field("kind") or "estimate",
            scenario_name=self.field("scenario") or "",
            quality=submitted.get("quality"),
            priority=int(submitted.get("priority") or 0),
            timeout=submitted.get("timeout"),
            store_key=self.store_key,
            id=self.job_id,
            correlation_id=submitted.get("correlation_id") or self.job_id,
            idempotency_key=self.idempotency_key,
            recovered=True,
            journalled=True,
        )


@dataclasses.dataclass
class JournalReplay:
    """Replay output: ordered per-job state + damage statistics."""

    jobs: dict[str, ReplayedJob]
    records: int = 0
    segments: int = 0
    torn_records: int = 0


class RecoveryManager:
    """Replays a :class:`JobJournal` and carries out its replay plan."""

    def __init__(self, journal: JobJournal, store=None) -> None:
        self.journal = journal
        self.store = store

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
                # A settled job was not running at the crash, so a
                # results-lost job that recovery re-queues is not
                # interrupted.
                state.settled = record
                state.dispatched = False
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

    def recover(
        self, rebuild: Callable[..., Callable | None] | None = None
    ) -> tuple[dict, list]:
        """Carry out the replay plan; returns ``(summary, jobs)``.

        Each replayed job comes back as a ``recovered``
        :class:`~repro.service.Job`.  A settled job in the window is
        re-stated as settled; a spooled one settles ``DONE`` from the
        store; every other live job takes its payload from
        ``rebuild(job, submitted)`` and is re-stated as submitted
        (``QUEUED``), or settles ``FAILED`` when ``rebuild`` returns
        ``None``.  Without ``rebuild`` (offline) every live job is
        re-stated for the next ``efes serve``.

        Journal writes here propagate on failure: the re-statements must
        be durably in the fresh segment before :meth:`JobJournal.compact`
        deletes the segments they came from, so a failing journal aborts
        recovery with the old segments — and therefore every job —
        intact for the next attempt.
        """
        # Imported here: repro.service imports this package.
        from ..service.jobs import JobState

        replay = self.replay()
        plan = self.plan(replay)
        jobs = []
        for state in plan["checkpoint"]:
            job = state.as_job()
            try:
                job.state = JobState(state.settled.get("state", "failed"))
            except ValueError:  # pragma: no cover - foreign record
                job.state = JobState.FAILED
            job.error = state.settled.get("error")
            job.from_store = bool(state.settled.get("from_store"))
            self._settle(job)
            jobs.append(job)
        outcomes = None if rebuild is None else collections.Counter()
        for state in plan["complete_from_store"] + plan["resubmit"]:
            job = state.as_job()
            jobs.append(job)
            if rebuild is not None:
                result = self._stored_result(state)
                if result is not None:
                    job.state = JobState.DONE
                    job.result = result
                    job.from_store = True
                    self._settle(job)
                    outcomes["completed_from_store"] += 1
                    continue
                job.payload = rebuild(job, state.submitted)
                if job.payload is None:
                    job.state = JobState.FAILED
                    job.error = UNRECOVERABLE_ERROR
                    self._settle(job)
                    outcomes["unrecoverable"] += 1
                    continue
                job.interrupted = state.dispatched
                outcomes["resubmitted"] += 1
                outcomes["interrupted"] += state.dispatched
            self.journal.append(
                dict(state.submitted, recovered=True), durable=False
            )
        self.journal.flush()
        compacted = self.journal.compact()
        return self._summary(replay, plan, outcomes, compacted), jobs

    def inspect(self) -> dict:
        """Dry run: replay + plan, zero writes (``efes recover --dry-run``)."""
        replay = self.replay()
        return self._summary(replay, self.plan(replay), dry_run=True)

    def _stored_result(self, state: ReplayedJob) -> dict | None:
        """The spooled result of an unsettled job, if the store has it."""
        if state.is_settled or not state.store_key or self.store is None:
            return None
        return self.store.get(state.store_key)

    def _settle(self, job) -> None:
        """Journal a replayed job, in its terminal state, as settled now."""
        job.finished_at = time.time()
        self.journal.append(settled_record_of(job), durable=False)

    @staticmethod
    def _summary(
        replay: JournalReplay,
        plan: dict,
        outcomes: dict | None = None,
        compacted: int = 0,
        *,
        dry_run: bool = False,
    ) -> dict:
        """The recovery summary; without ``outcomes``, as planned."""
        if outcomes is None:
            outcomes = {
                "resubmitted": len(plan["resubmit"]),
                "interrupted": sum(
                    1 for state in plan["resubmit"] if state.dispatched
                ),
                "completed_from_store": len(plan["complete_from_store"]),
                "unrecoverable": 0,
            }
        return {
            "segments": replay.segments,
            "records": replay.records,
            "torn_records": replay.torn_records,
            "jobs_seen": len(replay.jobs),
            "settled": len(plan["terminal"]),
            "resubmitted": outcomes["resubmitted"],
            "interrupted": outcomes["interrupted"],
            "completed_from_store": outcomes["completed_from_store"],
            "results_lost": plan["results_lost"],
            "unrecoverable": outcomes["unrecoverable"],
            "checkpointed": len(plan["checkpoint"]),
            "compacted_segments": compacted,
            "dry_run": dry_run,
        }
