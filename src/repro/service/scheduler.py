"""The concurrent job scheduler of the assessment service.

Submissions enter a **bounded priority queue** (higher ``priority`` runs
first, FIFO within a priority); when the queue is at capacity the
scheduler rejects with :class:`~repro.service.jobs.QueueFullError`
carrying an explicit retry-after hint — callers experience backpressure,
never a hang.  A dispatcher thread pops jobs into at most ``workers``
concurrent slots; each job executes with the scheduler's
:class:`~repro.runtime.Runtime` activated, so detector fan-out, profile
caching, and instrumentation all go through the shared runtime layer.

Per-job **deadlines** are enforced by the dispatcher in two phases.
When a job overruns its ``timeout`` the reaper *fires* the deadline: the
cancellation event is set, the worker slot is reclaimed immediately, and
the payload — running under a :class:`~repro.runtime.CancelScope`, so
every ``checkpoint()`` in the detector/profiling/planning hot loops
observes it — gets ``deadline_grace`` seconds to unwind.  A payload that
reaches a checkpoint in time settles ``DONE`` with whatever *partial*
estimate it earned (unrun modules become degradation tombstones and the
result document carries ``deadline_exceeded: true``); one that never
cooperates is settled ``FAILED`` at the grace deadline, its abandoned
thread left to drain in the background — a stuck detector cannot wedge
the service.  **Cancellation** works on queued jobs (they simply never
start) and on running jobs (event + immediate slot release, result
discarded); a cancel is never a degradation, because the degradation
boundaries let it propagate (:func:`~repro.runtime.deadline.degrades`).

Resilience layer (see :mod:`repro.resilience`):

* every terminal transition funnels through ``_settle_locked`` — a job
  settles exactly once; late settle attempts (an abandoned payload
  finishing after its timeout fired) are counted on
  ``jobs_double_settle_averted`` instead of clobbering the record,
* :meth:`close` is a **graceful drain**: ``/healthz`` reports
  ``draining``, running jobs finish, queued jobs fail with an explicit
  ``retry_after`` hint instead of silently disappearing,
* ``scheduler.dispatch`` is a named fault-injection site: an injected
  dispatch fault fails the popped job but never kills the dispatcher.

An estimate job runs :meth:`Efes.run <repro.core.framework.Efes.run>`
and an assess job a non-strict :meth:`Efes.assess
<repro.core.framework.Efes.assess>`, so a failing detector or planner,
or a relation CSV that failed to load, degrades its module instead of
failing the job: the result document then carries a ``degradations``
list alongside the surviving reports.  Results are serialised documents
(:mod:`repro.core.serialize`); a complete one is written to the
content-addressed :class:`~repro.service.store.ReportStore`, and a later
submission with identical scenario content completes instantly from the
store.  Degraded results and deadline partials are never stored: they
depend on a fault or a budget, and a later submission of the same
content must not be served a partial answer.

Durability layer (see :mod:`repro.durability`): with a ``journal``
configured, every acknowledged submission is written ahead to the
:class:`~repro.durability.JobJournal` (fsynced before the ack under the
default flush policy), ``dispatched``/``settled`` transitions follow as
advisory records, and construction replays whatever journal a crashed
predecessor left behind: :meth:`RecoveryManager.recover
<repro.durability.RecoveryManager.recover>` settles or re-queues each
replayed job, with payloads from :meth:`JobScheduler.rebuild`, and the
scheduler admits the jobs it returns through the step a submission
takes.  That re-enqueues unsettled jobs, settles crashed-but-stored
ones from the spool, and rebuilds the **idempotency-key** dedup window,
so a client retrying a submit after a crash neither loses nor
double-runs work.  A keyed submission the store answers is journalled
as settled before its ack, so its key survives the crash too.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
from collections import OrderedDict
from collections.abc import Callable

from ..core import default_efes
from ..core.framework import Efes
from ..core.quality import ResultQuality, parse_quality
from ..core.serialize import estimate_to_dict, reports_to_dict
from ..observability import Tracer, resource_summary, span_to_dict, tracing
from ..resilience import fault_point, format_exception, split_degraded
from ..durability import (
    JobJournal,
    JournalError,
    RecoveryManager,
    dispatched_record,
    settled_record_of,
    submitted_record,
)
from ..durability.recovery import IDEMPOTENCY_WINDOW
from ..runtime import (
    CancelScope,
    Deadline,
    OperationCancelled,
    Runtime,
)
from ..runtime.deadline import DEFAULT_GRACE
from ..scenarios import resolve_scenario
from .jobs import (
    Job,
    JobCancelled,
    JobState,
    QueueFullError,
    SchedulerClosedError,
    check_kind,
    check_timeout,
)
from .store import ReportStore, job_key

#: Fallback per-job duration estimate (seconds) for the retry-after hint
#: before any job has completed.
_DEFAULT_JOB_SECONDS = 1.0

#: Error message of jobs failed by a graceful drain.
DRAINING_ERROR = "scheduler is draining; job was not started"


class JobScheduler:
    """Queue + worker slots + report store over one assessment runtime."""

    def __init__(
        self,
        efes: Efes | None = None,
        runtime: Runtime | None = None,
        store: ReportStore | None = None,
        *,
        workers: int = 2,
        max_queue: int = 64,
        default_timeout: float | None = None,
        trace: bool = True,
        journal: JobJournal | None = None,
        payload_resolver: Callable[[str, "Job"], Callable | None] | None = None,
        deadline_grace: float = DEFAULT_GRACE,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be positive, got {workers}")
        if max_queue < 0:
            raise ValueError(f"max_queue must be >= 0, got {max_queue}")
        check_timeout(default_timeout)
        if deadline_grace < 0:
            raise ValueError(
                f"deadline_grace must be >= 0, got {deadline_grace}"
            )
        if runtime is None:
            runtime = efes.runtime if efes and efes.runtime else Runtime()
        self.runtime = runtime
        self.efes = efes if efes is not None else default_efes(runtime=runtime)
        self.store = (
            store if store is not None else ReportStore(metrics=runtime.metrics)
        )
        self.workers = workers
        self.max_queue = max_queue
        self.default_timeout = default_timeout
        #: Seconds a deadline-fired payload gets to reach a checkpoint
        #: and settle with its partial result before the reaper settles
        #: it ``FAILED`` (the slot is reclaimed at fire time either way).
        self.deadline_grace = deadline_grace
        #: Per-job tracing: each executed job runs under its own tracer
        #: and keeps its serialised ``service.job:<id>`` span tree.
        self.trace = trace
        #: Write-ahead job journal (``None`` = durability off).  When
        #: set, every acknowledged submission is journalled + fsynced
        #: before ``submit`` returns, and construction runs crash
        #: recovery over whatever the previous process left behind.
        self.journal = journal
        #: Rebuilds callable-job payloads at recovery: called with
        #: ``(payload_ref, job)``, returns the payload or ``None``.
        self.payload_resolver = payload_resolver
        #: Recovery summary of the journal replay run at construction
        #: (``None`` without a journal); surfaced by ``/healthz``.
        self.recovery_summary: dict | None = None

        self._lock = threading.RLock()
        self._wake = threading.Condition(self._lock)  # dispatcher wake-ups
        self._finished = threading.Condition(self._lock)  # waiters on jobs
        self._queue: list[tuple[int, int, Job]] = []
        self._sequence = itertools.count()
        self._jobs: dict[str, Job] = {}
        self._running: dict[str, Job] = {}
        #: Idempotency-key dedup window: key -> job id, the last
        #: ``IDEMPOTENCY_WINDOW`` keys (recovery re-states as many).
        self._idempotency: OrderedDict[str, str] = OrderedDict()
        self._free_slots = workers
        self._open = True
        self._completed_jobs = 0
        self._completed_seconds = 0.0
        # Recovery runs before the dispatcher exists: replayed jobs are
        # admitted into a quiescent scheduler, then the dispatcher starts
        # and drains them like any other submission.
        if journal is not None:
            self.recovery_summary, recovered = RecoveryManager(
                journal, self.store
            ).recover(self.rebuild)
            with self._lock:
                for job in recovered:
                    self._admit_locked(job)
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="repro-service-dispatch", daemon=True
        )
        self._dispatcher.start()

    @property
    def metrics(self):
        return self.runtime.metrics

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------

    def submit(
        self,
        scenario,
        kind: str = "estimate",
        quality: ResultQuality | str | None = None,
        *,
        priority: int = 0,
        timeout: float | None = None,
        correlation_id: str | None = None,
        idempotency_key: str | None = None,
        scenario_seed: int | None = None,
    ) -> Job:
        """Queue an assess/estimate job for ``scenario``; returns the job.

        Raises :class:`QueueFullError` (with ``retry_after``) when the
        bounded queue is at capacity, :class:`SchedulerClosedError` after
        shutdown, and ``ValueError`` or ``TypeError`` for an unknown
        ``kind`` or ``quality`` or a ``timeout`` that
        :func:`~repro.service.jobs.check_timeout` refuses.  Identical
        scenario content with a stored result completes immediately
        (``from_store=True``) without queueing.  ``correlation_id``
        stamps the job, its journal record and its ``service.job:<id>``
        span (default: the job id).

        ``idempotency_key`` dedups retried submissions: while the key is
        inside the scheduler's dedup window — which the journal carries
        across crashes — a repeat submit returns the original job instead
        of running the work twice.  With a journal configured, the
        submission is fsynced to the write-ahead log before this method
        returns (under the default flush policy), and a journal append
        failure raises :class:`~repro.durability.JournalError` instead of
        acknowledging a job that could be lost.  A store hit with a key
        is journalled the same way, as a settled record, so its retry
        after a crash dedups onto the same job; a keyless store hit
        writes nothing.  ``scenario_seed`` is
        recorded alongside the scenario name so recovery can re-resolve
        the same scenario after a crash.
        """
        check_kind(kind)
        check_timeout(timeout)
        existing = self._deduplicate(idempotency_key)
        if existing is not None:
            return existing
        resolved_quality = parse_quality(quality)
        key = job_key(
            scenario,
            kind,
            resolved_quality.value if kind == "estimate" else None,
        )
        job = Job(
            kind=kind,
            scenario_name=scenario.name,
            quality=resolved_quality.value if kind == "estimate" else None,
            priority=priority,
            timeout=timeout if timeout is not None else self.default_timeout,
            store_key=key,
            correlation_id=correlation_id or "",
            idempotency_key=idempotency_key,
        )
        self.metrics.increment("jobs_submitted")
        stored = self.store.get(key)
        if stored is not None:
            job.state = JobState.DONE
            job.result = stored
            job.from_store = True
            job.finished_at = time.time()
            if self.journal is not None and idempotency_key:
                # A keyed answer promises its retry the same job id, so
                # it reaches the journal before the ack, like a queued
                # submission; recovery re-registers it as settled.
                # Keyless hits have no retry to honour and stay off it.
                self.journal.append(
                    settled_record_of(job),
                    durable=self.journal.flush_policy.fsync_on_ack,
                )
                job.journalled = True
            self.metrics.increment("jobs_from_store")
            with self._lock:
                self._admit_locked(job)
            return job
        job.payload = self._payload_for(job, scenario, resolved_quality)
        record = None
        if self.journal is not None:
            record = submitted_record(
                job, scenario_ref=scenario.name, seed=scenario_seed
            )
        self._enqueue(job, journal_record=record)
        return job

    def submit_callable(
        self,
        payload: Callable[[Job], dict],
        *,
        name: str = "callable",
        priority: int = 0,
        timeout: float | None = None,
        payload_ref: str | None = None,
        idempotency_key: str | None = None,
    ) -> Job:
        """Queue an arbitrary payload (tests, extensions, maintenance).

        The payload receives the job (use ``job.check_cancelled()`` at
        convenient points) and returns the result document.

        Callable jobs are journalled only when ``payload_ref`` names the
        payload for the scheduler's ``payload_resolver`` — without a ref
        there is nothing recovery could re-execute, so the job is
        ephemeral by design.
        """
        check_timeout(timeout)
        existing = self._deduplicate(idempotency_key)
        if existing is not None:
            return existing
        job = Job(
            kind="callable",
            scenario_name=name,
            priority=priority,
            timeout=timeout if timeout is not None else self.default_timeout,
            payload=payload,
            idempotency_key=idempotency_key,
        )
        self.metrics.increment("jobs_submitted")
        record = None
        if self.journal is not None and payload_ref is not None:
            record = submitted_record(job, payload_ref=payload_ref)
        self._enqueue(job, journal_record=record)
        return job

    def _deduplicate(self, idempotency_key: str | None) -> Job | None:
        """The already-accepted job for this key, if inside the window."""
        if not idempotency_key:
            return None
        with self._lock:
            job_id = self._idempotency.get(idempotency_key)
            job = self._jobs.get(job_id) if job_id is not None else None
        if job is None:
            return None
        self.metrics.increment("jobs_deduplicated")
        return job

    def _remember_idempotency_locked(self, job: Job) -> None:
        if not job.idempotency_key:
            return
        self._idempotency[job.idempotency_key] = job.id
        self._idempotency.move_to_end(job.idempotency_key)
        while len(self._idempotency) > IDEMPOTENCY_WINDOW:
            self._idempotency.popitem(last=False)

    def _payload_for(
        self, job: Job, scenario, quality: ResultQuality
    ) -> Callable[[Job], dict]:
        """The payload of an assess or estimate job: ``Efes.run`` for an
        estimate, a non-strict ``Efes.assess`` for an assessment, then
        the result document."""

        def payload(job: Job) -> dict:
            estimate = None
            if job.kind == "estimate":
                outcome = self.efes.run(scenario, quality)
                reports, degradations = outcome.reports, outcome.degradations
                estimate = outcome.estimate
            else:
                reports, degradations = split_degraded(
                    self.efes.assess(scenario, strict=False)
                )
            with self.metrics.stage("serialize"):
                doc = {"kind": job.kind, "scenario": scenario.name}
                if estimate is not None:
                    doc["quality"] = quality.value
                doc["reports"] = reports_to_dict(reports)
                if estimate is not None:
                    doc["estimate"] = estimate_to_dict(estimate)
                if degradations:
                    doc["degradations"] = [d.to_dict() for d in degradations]
                return doc

        return payload

    def _enqueue(self, job: Job, *, journal_record: dict | None = None) -> None:
        with self._lock:
            if not self._open:
                raise SchedulerClosedError("scheduler is shut down")
            depth = self._queue_depth_locked()
            if depth >= self.max_queue:
                self.metrics.increment("jobs_rejected")
                raise QueueFullError(depth, self._retry_after_locked(depth))
            if journal_record is not None and self.journal is not None:
                # The write-ahead contract: the submitted record reaches
                # the journal (fsynced, under fsync_on_ack) before the
                # job is queued.  A failing append raises — rejecting
                # the submission — rather than acknowledging a job a
                # crash could silently lose.
                self.journal.append(journal_record)
                job.journalled = True
            self._admit_locked(job)

    def _admit_locked(self, job: Job) -> None:
        """Register ``job``, queueing it unless it is already terminal:
        the one admission step of submissions, store hits and recovered
        jobs.  It checks no queue capacity; :meth:`_enqueue` does."""
        if job.state is JobState.QUEUED:
            heapq.heappush(
                self._queue, (-job.priority, next(self._sequence), job)
            )
            self._wake.notify_all()
        self._jobs[job.id] = job
        self._remember_idempotency_locked(job)

    # ------------------------------------------------------------------
    # Settling: every terminal transition goes through here, exactly once
    # ------------------------------------------------------------------

    def _settle_locked(
        self,
        job: Job,
        state: JobState,
        *,
        error: str | None = None,
        result: dict | None = None,
        retry_after: float | None = None,
    ) -> bool:
        """Move ``job`` to a terminal ``state``; the ONLY place that may.

        Returns ``False`` — and counts ``jobs_double_settle_averted`` —
        when the job already settled (e.g. its timeout fired while the
        payload was still serialising its result, and the abandoned
        payload thread now reports in late).  The first settle wins; a
        late attempt never clobbers state, result, or metrics.
        """
        if job.state.is_terminal:
            self.metrics.increment("jobs_double_settle_averted")
            return False
        job.state = state
        job.finished_at = time.time()
        if error is not None:
            job.error = error
        if result is not None:
            job.result = result
        if retry_after is not None:
            job.retry_after = retry_after
        self._running.pop(job.id, None)
        if job.started_at is not None:
            self._release_slot_locked(job)
            self._record_duration_locked(job)
        self._journal_settled_locked(job)
        self._finished.notify_all()
        return True

    def _journal_settled_locked(self, job: Job) -> None:
        """Advisory settled record; every terminal path funnels through.

        Best-effort by design: losing a settled record merely means
        recovery re-executes the job idempotently, so an append failure
        here is counted, never raised into the settle path.
        """
        if self.journal is None or not job.journalled:
            return
        self._journal_append_advisory(settled_record_of(job))

    def _journal_append_advisory(self, record: dict) -> None:
        try:
            self.journal.append(record, durable=False)
        except JournalError:
            self.metrics.increment("journal_append_failures")

    # ------------------------------------------------------------------
    # Crash recovery: RecoveryManager.recover builds the jobs, this
    # rebuilds their payloads
    # ------------------------------------------------------------------

    def rebuild(
        self, job: Job, submitted: dict
    ) -> Callable[[Job], dict] | None:
        """The payload of a job recovery replays, from its ``submitted``
        record; ``None`` when the journal cannot rebuild it (an
        unresolvable scenario, a callable without a resolvable
        ``payload_ref``), and recovery then settles the job ``FAILED``."""
        try:
            if job.kind == "callable":
                ref = submitted.get("payload_ref")
                if ref is None or self.payload_resolver is None:
                    return None
                return self.payload_resolver(ref, job)
            scenario_ref = submitted.get("scenario_ref") or job.scenario_name
            if job.kind not in ("assess", "estimate") or not scenario_ref:
                return None
            seed = submitted.get("seed")
            scenario = resolve_scenario(
                scenario_ref, seed=seed if seed is not None else 1
            )
        except Exception:  # noqa: BLE001 - resolvers are foreign code
            return None
        return self._payload_for(job, scenario, parse_quality(job.quality))

    # ------------------------------------------------------------------
    # Dispatch + execution
    # ------------------------------------------------------------------

    def _dispatch_loop(self) -> None:
        with self._lock:
            while True:
                now = time.monotonic()
                self._reap_expired_locked(now)
                if not self._open and not self._queue and not self._running:
                    return
                job = self._pop_runnable_locked()
                if job is not None:
                    try:
                        fault_point(
                            "scheduler.dispatch",
                            job_id=job.id,
                            kind=job.kind,
                            scenario=job.scenario_name,
                        )
                    except OSError as exc:
                        # An injected (or real) dispatch failure costs
                        # this job, never the dispatcher.
                        if self._settle_locked(
                            job,
                            JobState.FAILED,
                            error=format_exception(exc),
                        ):
                            self.metrics.increment("jobs_failed")
                        continue
                    self._free_slots -= 1
                    job.state = JobState.RUNNING
                    job.started_at = time.time()
                    if job.timeout is not None:
                        job.deadline = now + job.timeout
                    self._running[job.id] = job
                    if self.journal is not None and job.journalled:
                        # Advisory: a crash after this point makes the
                        # job "interrupted" (re-executed idempotently)
                        # instead of merely queued.
                        self._journal_append_advisory(
                            dispatched_record(job.id)
                        )
                    threading.Thread(
                        target=self._run_job,
                        args=(job,),
                        name=f"repro-service-job-{job.id}",
                        daemon=True,
                    ).start()
                    continue
                self._wake.wait(timeout=self._next_deadline_delay_locked())

    def _pop_runnable_locked(self) -> Job | None:
        if self._free_slots <= 0:
            return None
        while self._queue:
            _, _, job = heapq.heappop(self._queue)
            if job.state is JobState.QUEUED:
                return job
            # Cancelled while queued: already terminal, skip the husk.
        return None

    def _next_deadline_delay_locked(self) -> float | None:
        deadlines = [
            job.grace_deadline if job.deadline_fired else job.deadline
            for job in self._running.values()
            if job.deadline is not None
        ]
        if not deadlines:
            return None
        return max(0.0, min(deadlines) - time.monotonic()) + 0.005

    def _reap_expired_locked(self, now: float) -> None:
        """Two-phase deadline enforcement over the running set.

        Phase 1 (*fire*, at ``job.deadline``): set the cancel event —
        observed by the payload's cancel scope at its next checkpoint —
        reclaim the worker slot so admission capacity never waits on a
        cooperating payload, and start the grace clock.  The job is NOT
        settled: it keeps running toward a partial-result settlement.

        Phase 2 (*reap*, at ``job.grace_deadline``): a payload that never
        reached a checkpoint is settled ``FAILED`` and its thread is
        abandoned; the first-settle-wins rule in ``_settle_locked``
        resolves the race against a partial arriving at the same moment.
        """
        for job in list(self._running.values()):
            if job.deadline is None:
                continue
            if not job.deadline_fired and now >= job.deadline:
                job.deadline_fired = True
                job.grace_deadline = now + self.deadline_grace
                job.cancel_event.set()
                self._release_slot_locked(job)
                self.metrics.increment("jobs_deadline_exceeded")
            if (
                job.deadline_fired
                and job.grace_deadline is not None
                and now >= job.grace_deadline
            ):
                if not self._settle_locked(
                    job,
                    JobState.FAILED,
                    error=f"timed out after {job.timeout:g}s",
                ):
                    continue
                self._note_timeout_locked()

    def _note_timeout_locked(self) -> None:
        """Counters of one timed-out job."""
        self.metrics.increment("jobs_timeout")
        self.metrics.increment("jobs_failed")

    def _run_job(self, job: Job) -> None:
        result: dict | None = None
        error: str | None = None
        cancelled = False
        tracer = Tracer() if self.trace else None
        if job.queued_seconds is not None:
            self.metrics.observe(
                "stage_seconds", job.queued_seconds, stage="service.queue"
            )
        started = time.perf_counter()
        # The scope every checkpoint below observes: the job's deadline
        # (already on the monotonic clock) plus its cancel event, so both
        # the reaper and a user cancel stop the payload at the next
        # checkpoint without any plumbing.
        scope = CancelScope(
            deadline=(
                Deadline(job.deadline) if job.deadline is not None else None
            ),
            cancel_event=job.cancel_event,
            label=f"job:{job.id}",
        )
        try:
            with self.runtime.activated(), scope.activated():
                if tracer is None:
                    job.check_cancelled()
                    result = job.payload(job)
                else:
                    with tracer.activated(), tracing.span(
                        f"service.job:{job.id}",
                        kind=job.kind,
                        scenario=job.scenario_name,
                        correlation_id=job.correlation_id,
                    ):
                        job.check_cancelled()
                        result = job.payload(job)
        except JobCancelled:
            cancelled = True
        except OperationCancelled as exc:
            # A checkpoint stopped the payload.  Plain cancellation maps
            # to the CANCELLED settle; a deadline abort leaves ``result``
            # unset and lets the deadline branch of ``_finish`` settle
            # the timeout.
            if exc.reason == "cancelled":
                cancelled = True
            else:
                error = f"{type(exc).__name__}: {exc}"
        except Exception as exc:  # noqa: BLE001 - job isolation boundary
            error = f"{type(exc).__name__}: {exc}"
        self.metrics.observe(
            "stage_seconds",
            time.perf_counter() - started,
            stage="service.job",
        )
        if tracer is not None and tracer.root is not None:
            job.trace = span_to_dict(tracer.root)
        self._finish(job, result, error, cancelled)

    def _finish(
        self, job: Job, result: dict | None, error: str | None, cancelled: bool
    ) -> None:
        with self._lock:
            if job.deadline_fired:
                # The deadline reaper fired while this payload ran; its
                # cancel event being set means "timed out", never "user
                # cancelled".  A payload that still produced a document
                # settles DONE with the partial it earned — marked, and
                # deliberately NOT written to the report store: partials
                # are budget-dependent, and the content address must keep
                # answering with full-budget results only.
                if result is not None:
                    partial = dict(result)
                    partial["deadline_exceeded"] = True
                    if self._settle_locked(
                        job, JobState.DONE, result=partial
                    ):
                        self.metrics.increment("jobs_completed")
                        self.metrics.increment("jobs_deadline_partial")
                        self.metrics.increment("jobs_degraded")
                elif self._settle_locked(
                    job,
                    JobState.FAILED,
                    error=f"timed out after {job.timeout:g}s",
                ):
                    self._note_timeout_locked()
            elif cancelled or job.cancel_event.is_set():
                if self._settle_locked(job, JobState.CANCELLED):
                    self.metrics.increment("jobs_cancelled")
            elif error is not None:
                if self._settle_locked(job, JobState.FAILED, error=error):
                    self.metrics.increment("jobs_failed")
            else:
                degraded = isinstance(result, dict) and bool(
                    result.get("degradations")
                )
                # Store BEFORE settling: the settled-done journal record
                # must never precede its result document, so a crash
                # between the two re-executes (idempotent) rather than
                # trusting a result that was never persisted.  A degraded
                # result is not stored, like a deadline partial: the
                # content address answers with complete results only.
                if (
                    not job.state.is_terminal
                    and job.store_key is not None
                    and result is not None
                    and not degraded
                ):
                    self._store_result_locked(job, result)
                if self._settle_locked(job, JobState.DONE, result=result):
                    self.metrics.increment("jobs_completed")
                    if degraded:
                        self.metrics.increment("jobs_degraded")
            # A late arrival (the job settled by timeout or cancel while
            # the payload drained) still releases its slot idempotently.
            self._release_slot_locked(job)
            self._wake.notify_all()
            self._finished.notify_all()

    def _store_result_locked(self, job: Job, result: dict) -> None:
        """Spool the result; a failing spool never fails a DONE job."""
        with self.metrics.stage("store.put"):
            try:
                self.store.put(job.store_key, result)
            except OSError:
                # The in-memory result stands; persistence is best-effort.
                self.metrics.increment("store_put_failures")

    def _release_slot_locked(self, job: Job) -> None:
        if not job.slot_released:
            job.slot_released = True
            self._free_slots += 1
            self._wake.notify_all()

    def _record_duration_locked(self, job: Job) -> None:
        duration = job.duration_seconds
        if duration is not None:
            self._completed_jobs += 1
            self._completed_seconds += duration

    # ------------------------------------------------------------------
    # Health
    # ------------------------------------------------------------------

    def _deadline_stats_locked(self) -> dict:
        """Point-in-time deadline posture of the running set."""
        now = time.monotonic()
        remaining = [
            job.deadline - now
            for job in self._running.values()
            if job.deadline is not None and not job.deadline_fired
        ]
        in_grace = sum(
            1 for job in self._running.values() if job.deadline_fired
        )
        return {
            "grace_seconds": self.deadline_grace,
            "running_with_deadline": len(remaining),
            "in_grace": in_grace,
            "min_remaining_seconds": (
                round(min(remaining), 4) if remaining else None
            ),
            "exceeded_total": int(
                self.metrics.counter("jobs_deadline_exceeded")
            ),
            "partial_results_total": int(
                self.metrics.counter("jobs_deadline_partial")
            ),
        }

    def deadline_stats(self) -> dict:
        """The ``/healthz`` deadlines document (see :meth:`stats`)."""
        with self._lock:
            return self._deadline_stats_locked()

    def health_snapshot(self) -> dict:
        """Health state + resources, as ``/healthz`` reports them under
        ``health`` (the journal, recovery and deadline documents sit at
        its top level, from :meth:`stats`).  The resources are one fresh
        :func:`~repro.observability.resource_summary`.

        The state is ``draining`` once :meth:`close` began, else
        ``degraded`` while the report store holds quarantined entries
        (reason ``store_quarantine``), else ``healthy``.
        """
        reasons = ["store_quarantine"] if self.store.quarantined_count() else []
        if not self._open:
            state = "draining"
        else:
            state = "degraded" if reasons else "healthy"
        return {
            "state": state,
            "reasons": reasons,
            "resources": resource_summary(),
        }

    # ------------------------------------------------------------------
    # Inspection + control
    # ------------------------------------------------------------------

    def job(self, job_id: str) -> Job | None:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> list[Job]:
        with self._lock:
            return sorted(self._jobs.values(), key=lambda j: j.created_at)

    def cancel(self, job_id: str) -> Job:
        """Cancel a queued or running job; terminal jobs are left as-is."""
        with self._lock:
            job = self._jobs[job_id]
            if job.state in (JobState.QUEUED, JobState.RUNNING):
                job.cancel_event.set()
                if self._settle_locked(job, JobState.CANCELLED):
                    self.metrics.increment("jobs_cancelled")
            return job

    def wait(self, job_id: str, timeout: float | None = None) -> Job:
        """Block until the job reaches a terminal state (or timeout)."""
        deadline = (
            time.monotonic() + timeout if timeout is not None else None
        )
        with self._lock:
            job = self._jobs[job_id]
            while not job.state.is_terminal:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        break
                self._finished.wait(timeout=remaining)
            return job

    def _queue_depth_locked(self) -> int:
        return sum(
            1 for _, _, job in self._queue if job.state is JobState.QUEUED
        )

    def _retry_after_locked(self, depth: int) -> float:
        average = (
            self._completed_seconds / self._completed_jobs
            if self._completed_jobs
            else _DEFAULT_JOB_SECONDS
        )
        waves = (depth + self.workers) / self.workers
        return round(max(1.0, waves * average), 1)

    def stats(self) -> dict:
        """Point-in-time scheduler state: ``/healthz`` reports it, and
        each ``/metrics`` scrape computes its scheduler gauges from it
        (:meth:`ServiceServer.metrics
        <repro.service.http_api.ServiceServer.metrics>`)."""
        with self._lock:
            busy = self.workers - self._free_slots
            return {
                "open": self._open,
                "workers": self.workers,
                "busy_workers": busy,
                "free_workers": self._free_slots,
                "worker_utilisation": busy / self.workers,
                "max_queue": self.max_queue,
                "queue_depth": self._queue_depth_locked(),
                "running": len(self._running),
                "jobs_total": len(self._jobs),
                "completed_jobs": self._completed_jobs,
                "average_job_seconds": (
                    self._completed_seconds / self._completed_jobs
                    if self._completed_jobs
                    else None
                ),
                "deadlines": self._deadline_stats_locked(),
                "idempotency_window": len(self._idempotency),
                "journal": (
                    self.journal.stats() if self.journal is not None else None
                ),
                "recovery": self.recovery_summary,
            }

    def close(self, *, wait: bool = True, timeout: float | None = 10.0) -> None:
        """Graceful drain: finish running jobs, fail queued ones.

        :meth:`health_snapshot` reads ``draining`` from here on; queued
        jobs settle ``FAILED`` with :data:`DRAINING_ERROR` and an
        explicit ``retry_after`` hint so clients know to resubmit, while
        running jobs get up to ``timeout`` seconds to complete.
        """
        with self._lock:
            if not self._open:
                return
            self._open = False
            depth = self._queue_depth_locked()
            hint = self._retry_after_locked(depth) if depth else None
            for _, _, job in self._queue:
                if job.state is JobState.QUEUED:
                    job.cancel_event.set()
                    if self._settle_locked(
                        job,
                        JobState.FAILED,
                        error=DRAINING_ERROR,
                        retry_after=hint,
                    ):
                        self.metrics.increment("jobs_drained")
            self._queue.clear()
            self._wake.notify_all()
            self._finished.notify_all()
        if wait:
            deadline = (
                time.monotonic() + timeout if timeout is not None else None
            )
            with self._lock:
                while self._running:
                    remaining = None
                    if deadline is not None:
                        remaining = deadline - time.monotonic()
                        if remaining <= 0:
                            break
                    self._finished.wait(timeout=remaining)
        self._dispatcher.join(timeout=1.0)
        if self.journal is not None:
            # The drain above settled every queued job; flush those
            # records so a restart sees a clean ledger, then release
            # the segment handle.
            try:
                self.journal.flush()
            except OSError:  # pragma: no cover - dying disk at shutdown
                pass
            self.journal.close()

    def __enter__(self) -> "JobScheduler":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        stats = self.stats()
        return (
            f"JobScheduler(workers={self.workers}, "
            f"queued={stats['queue_depth']}/{self.max_queue}, "
            f"running={stats['running']})"
        )
