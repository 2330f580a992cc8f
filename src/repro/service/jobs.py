"""The assessment-service job model.

A *job* is one unit of effort-estimation work submitted to the
:class:`~repro.service.scheduler.JobScheduler`: a full pipeline run
(``estimate``), a phase-1-only run (``assess``), or an arbitrary callable
(``callable``, used by tests and extensions).  Jobs carry a priority, an
optional per-job timeout, and a cancellation event that detectors and
custom payloads can observe cooperatively.

State machine::

    QUEUED ──> RUNNING ──> DONE
       │          ├──────> FAILED     (exception or timeout)
       └──────────┴──────> CANCELLED

``DONE`` jobs submitted for content already in the report store never
enter the queue at all — they are born ``DONE`` with ``from_store=True``.
"""

from __future__ import annotations

import dataclasses
import enum
import math
import threading
import time
import uuid
from collections.abc import Callable

#: The job kinds the scheduler knows how to execute.
JOB_KINDS = ("assess", "estimate", "callable")


class JobState(enum.Enum):
    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    @property
    def is_terminal(self) -> bool:
        return self in (JobState.DONE, JobState.FAILED, JobState.CANCELLED)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class SchedulerClosedError(RuntimeError):
    """No submission can be admitted: the scheduler is shut down.

    The HTTP API answers 503 without a ``Retry-After`` header.
    """


class QueueFullError(RuntimeError):
    """Backpressure: the bounded job queue is at capacity.

    The ``retry_after`` hint (seconds) derives from the queue depth and
    observed job durations.  The HTTP API answers 503 with the hint both
    as a ``Retry-After`` header and as the body's ``retry_after``, which
    is how clients tell backpressure from an outage.
    """

    def __init__(self, depth: int, retry_after: float) -> None:
        super().__init__(
            f"job queue is full ({depth} queued); retry in ~{retry_after:g}s"
        )
        self.depth = depth
        self.retry_after = retry_after


def check_kind(kind: object) -> str:
    """``kind`` if a submission may name it: ``assess`` or ``estimate``."""
    if kind not in ("assess", "estimate"):
        raise ValueError(
            f"unknown job kind {kind!r}; expected 'assess' or 'estimate'"
        )
    return kind


def check_timeout(timeout: object) -> float | None:
    """``timeout`` if it is a job budget: ``None`` (unbounded) or a
    finite number of seconds > 0.  A ``bool`` is not a number here."""
    if timeout is None:
        return None
    if isinstance(timeout, bool) or not isinstance(timeout, (int, float)):
        raise TypeError(
            f"timeout must be a number of seconds or None, got {timeout!r}"
        )
    if not math.isfinite(timeout) or timeout <= 0:
        raise ValueError(
            f"timeout must be a finite number of seconds > 0, got {timeout!r}"
        )
    return timeout


class JobCancelled(Exception):
    """Raised inside a payload that observes its cancellation event."""


@dataclasses.dataclass
class Job:
    """One submitted assessment/estimation job and its lifecycle record.

    Mutable fields are only written while holding the owning scheduler's
    lock; payload code must treat jobs as read-only apart from checking
    ``cancel_event``.
    """

    kind: str
    scenario_name: str = ""
    quality: str | None = None
    priority: int = 0
    timeout: float | None = None
    #: Content-address in the report store (``None`` for callable jobs).
    store_key: str | None = None
    id: str = dataclasses.field(default_factory=lambda: uuid.uuid4().hex[:12])
    #: Correlation ID carried by the job's snapshot, journal record and
    #: ``service.job:<id>`` span; defaults to the job id, overridable at
    #: submission (the HTTP API maps the ``X-Correlation-ID`` request
    #: header here).
    correlation_id: str = ""
    #: Client-supplied dedup key (the HTTP ``Idempotency-Key`` header).
    #: While a key is inside the scheduler's dedup window, a repeated
    #: submit returns the original job instead of enqueueing a second
    #: execution — the contract that makes post-crash client retries
    #: safe.  The journal persists keys, so the window survives restarts.
    idempotency_key: str | None = None
    #: True when this job was rebuilt from the journal by crash recovery
    #: rather than submitted by a caller in this process lifetime.
    recovered: bool = dataclasses.field(default=False, repr=False)
    #: True when the journal shows the job was RUNNING at the crash; it
    #: is re-executed idempotently (results are content-addressed, so a
    #: partial first execution cannot double-count).
    interrupted: bool = dataclasses.field(default=False, repr=False)
    #: True once the job's ``submitted`` record is in the journal; only
    #: journalled jobs write ``dispatched``/``settled`` records (a
    #: callable job without a ``payload_ref`` is ephemeral by design).
    journalled: bool = dataclasses.field(default=False, repr=False)
    state: JobState = JobState.QUEUED
    result: dict | None = None
    error: str | None = None
    from_store: bool = False
    #: Serialised root span (``service.job:<id>``) of the executed job,
    #: set when the owning scheduler traces jobs; served by
    #: ``GET /trace/<job_id>``.
    trace: dict | None = dataclasses.field(
        default=None, repr=False, compare=False
    )
    created_at: float = dataclasses.field(default_factory=time.time)
    started_at: float | None = None
    finished_at: float | None = None
    #: Monotonic deadline, set when the job starts running with a timeout.
    deadline: float | None = None
    #: True once the deadline reaper fired: the cancel event is set, the
    #: slot is reclaimed, and the payload has until ``grace_deadline`` to
    #: reach a checkpoint and settle with whatever partial it earned.
    deadline_fired: bool = dataclasses.field(default=False, repr=False)
    #: Monotonic hard stop for a deadline-fired job; past it the job is
    #: settled FAILED even if the payload never cooperates.
    grace_deadline: float | None = dataclasses.field(default=None, repr=False)
    cancel_event: threading.Event = dataclasses.field(
        default_factory=threading.Event, repr=False, compare=False
    )
    #: The work itself; set by the scheduler for assess/estimate jobs and
    #: by the submitter for callable jobs.  Receives the job, returns the
    #: result document.
    payload: Callable[["Job"], dict] | None = dataclasses.field(
        default=None, repr=False, compare=False
    )
    #: Released-slot guard: a timed-out/cancelled running job frees its
    #: worker slot exactly once even though the abandoned payload thread
    #: finishes later.
    slot_released: bool = dataclasses.field(default=False, repr=False)
    #: Retry hint (seconds) attached when the job failed for a transient
    #: reason — e.g. it was queued when a graceful drain began.
    retry_after: float | None = dataclasses.field(default=None, repr=False)

    def __post_init__(self) -> None:
        if not self.correlation_id:
            self.correlation_id = self.id

    def check_cancelled(self) -> None:
        """Cooperative cancellation point for payloads."""
        if self.cancel_event.is_set():
            raise JobCancelled(self.id)

    @property
    def duration_seconds(self) -> float | None:
        if self.started_at is None:
            return None
        end = self.finished_at if self.finished_at is not None else time.time()
        return end - self.started_at

    @property
    def queued_seconds(self) -> float | None:
        """Time spent waiting in the queue before a slot picked the job."""
        if self.started_at is None:
            return None
        return max(0.0, self.started_at - self.created_at)

    def snapshot(self) -> dict:
        """A JSON-compatible status view (the HTTP API's job resource)."""
        return {
            "id": self.id,
            "kind": self.kind,
            "scenario": self.scenario_name,
            "quality": self.quality,
            "priority": self.priority,
            "timeout": self.timeout,
            "state": self.state.value,
            "error": self.error,
            "from_store": self.from_store,
            "deadline_fired": self.deadline_fired,
            "retry_after": self.retry_after,
            "correlation_id": self.correlation_id,
            "idempotency_key": self.idempotency_key,
            "recovered": self.recovered,
            "interrupted": self.interrupted,
            "has_trace": self.trace is not None,
            "created_at": self.created_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "queued_seconds": self.queued_seconds,
            "duration_seconds": self.duration_seconds,
        }
