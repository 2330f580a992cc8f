"""Deadlines and cooperative cancellation for the assessment pipeline.

The paper's premise is pricing work before doing it; this module applies
the same discipline to the estimator's own execution.  A job admitted
with a budget either finishes inside it or stops burning resources at
the next *checkpoint*, returning whatever partial estimate it earned.

Three pieces, mirroring the contextvars design of the Tracer:

``Deadline``
    An absolute point on the monotonic clock with ``remaining()`` /
    ``expired``.

``CancelScope``
    Couples an optional deadline with an optional external cancel event
    (the scheduler passes the job's ``cancel_event``).  ``activated()``
    installs the scope in a contextvar so checkpoints anywhere below —
    detectors, profiling loops, dependency lattice search — observe it
    without plumbing.

``checkpoint(site)``
    The cooperative cancellation point.  With no active scope it is one
    contextvar read and a ``None`` check (gated <5% by
    ``bench_deadline_overhead.py``).  Under an active scope it is also
    the ``deadline.checkpoint`` fault site, so chaos schedules can
    stall exactly the code that is supposed to notice deadlines; the
    scope is re-checked *after* an injected delay so an overrun is
    noticed at this checkpoint, not the next one.

Cancellation raises :class:`OperationCancelled` (or its deadline
flavour :class:`DeadlineExceededError`).  The degradation boundaries
(the runtime's detector loop and ``Efes.plan``) ask :func:`degrades`:
a deadline becomes a :class:`~repro.resilience.DegradedResult`
tombstone, which is what turns a timed-out run into a priced partial
estimate instead of a crash, while a plain cancel propagates to the
caller, so a cancelled job degrades no module.  A computation that
never reaches a checkpoint is settled ``FAILED`` by the scheduler once
its grace window passes.
"""

from __future__ import annotations

import contextlib
import contextvars
import threading
import time

from ..observability import tracing
from ..resilience.faults import fault_point

__all__ = [
    "DEFAULT_GRACE",
    "CancelScope",
    "Deadline",
    "DeadlineExceededError",
    "OperationCancelled",
    "checkpoint",
    "current_scope",
    "degrades",
]

#: Seconds a cancelled job gets to reach its next checkpoint before the
#: scheduler's grace reap settles it ``FAILED``.
DEFAULT_GRACE = 0.5


class OperationCancelled(Exception):
    """A checkpoint observed that the active scope was cancelled."""

    reason = "cancelled"

    def __init__(
        self, message: str = "operation cancelled", site: str = ""
    ) -> None:
        super().__init__(message)
        self.site = site


class DeadlineExceededError(OperationCancelled):
    """The active scope's deadline expired."""

    reason = "deadline"

    def __init__(
        self, message: str = "deadline exceeded", site: str = ""
    ) -> None:
        super().__init__(message, site)


def degrades(exc: Exception, strict: bool) -> bool:
    """Whether a degradation boundary turns ``exc`` into a tombstone.

    Under ``strict`` nothing does.  Otherwise everything does except a
    plain cancel (reason ``cancelled``): the whole job is being dropped,
    so no module of it failed, and the cancel propagates to the caller.
    A :class:`DeadlineExceededError` degrades, which is how a timed-out
    job keeps the partial estimate it earned.
    """
    if strict:
        return False
    return not isinstance(exc, OperationCancelled) or exc.reason != "cancelled"


class Deadline:
    """An absolute expiry on the monotonic clock."""

    __slots__ = ("expires_at",)

    def __init__(self, expires_at: float) -> None:
        self.expires_at = float(expires_at)

    @classmethod
    def after(cls, seconds: float) -> "Deadline":
        """A deadline ``seconds`` from now (clamped non-negative)."""
        return cls(time.monotonic() + max(0.0, float(seconds)))

    def remaining(self) -> float:
        """Seconds left; negative once expired."""
        return self.expires_at - time.monotonic()

    @property
    def expired(self) -> bool:
        return time.monotonic() >= self.expires_at

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Deadline(remaining={self.remaining():.3f}s)"


_SCOPE: contextvars.ContextVar["CancelScope | None"] = contextvars.ContextVar(
    "repro_cancel_scope", default=None
)


class CancelScope:
    """A deadline and/or cancel event observed by checkpoints below."""

    __slots__ = ("deadline", "cancel_event", "label")

    def __init__(
        self,
        deadline: Deadline | None = None,
        cancel_event: "threading.Event | None" = None,
        *,
        label: str = "",
    ) -> None:
        self.deadline = deadline
        self.cancel_event = cancel_event
        self.label = label

    def cancel_reason(self) -> str | None:
        """``"deadline"``, ``"cancelled"``, or ``None`` if still live.

        Deadline wins over an external cancel: the scheduler sets the
        job's ``cancel_event`` when its deadline fires, and the partial
        -result settlement path needs to tell the two apart.
        """
        if self.deadline is not None and self.deadline.expired:
            return "deadline"
        if self.cancel_event is not None and self.cancel_event.is_set():
            return "cancelled"
        return None

    @contextlib.contextmanager
    def activated(self):
        """Install this scope for the duration of the ``with`` block."""
        token = _SCOPE.set(self)
        try:
            yield self
        finally:
            _SCOPE.reset(token)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CancelScope(label={self.label!r}, deadline={self.deadline!r})"


def current_scope() -> CancelScope | None:
    """The innermost active scope, or ``None``."""
    return _SCOPE.get()


def checkpoint(site: str = "", **context) -> None:
    """Cooperative cancellation point for the pipeline's hot loops.

    Raises :class:`DeadlineExceededError` /
    :class:`OperationCancelled` when the active scope is cancelled; a
    no-op (one contextvar read) when no scope is active.
    """
    scope = _SCOPE.get()
    if scope is None:
        return
    reason = scope.cancel_reason()
    if reason is None:
        # The named chaos site: injected delays model slow work landing
        # exactly where cancellation should be noticed.  Re-check after
        # the (possible) stall so an overrun aborts here, not one full
        # work unit later.
        fault_point("deadline.checkpoint", checkpoint=site, **context)
        reason = scope.cancel_reason()
    if reason is None:
        return
    where = site or "checkpoint"
    span = tracing.current_span()
    if span is not None:
        span.set_attribute("cancelled_at", where)
        span.set_attribute("cancel_reason", reason)
    if reason == "deadline":
        raise DeadlineExceededError(
            f"deadline exceeded at checkpoint {where!r}", site=where
        )
    raise OperationCancelled(
        f"operation cancelled at checkpoint {where!r}", site=where
    )
