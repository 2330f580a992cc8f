"""Structured JSONL event logging with per-job correlation IDs.

Every significant lifecycle transition of the assessment service —
submitted, started, finished, cancelled, timed out — is recorded as one
JSON object per line, each carrying the **correlation ID** of the job it
belongs to.  The ID is bound to the calling context
(:func:`correlation_scope`), so code deep inside a payload never passes
it around explicitly, and log lines emitted from worker threads still
correlate back to the HTTP submission that caused them.

The :class:`EventLog` keeps a bounded in-memory ring (queryable by
tests and the service) and optionally appends to a JSONL file.  Standard
:mod:`logging` traffic can be routed into the same stream via
:func:`EventLog.logging_handler`, which stamps records with the bound
correlation ID — the "logging adapter" face of the event log.
"""

from __future__ import annotations

import contextvars
import json
import logging
import threading
import time
from collections import deque
from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path

_CORRELATION: contextvars.ContextVar[str | None] = contextvars.ContextVar(
    "repro_correlation_id", default=None
)

#: Default in-memory ring capacity; old events fall off the front.
DEFAULT_MEMORY_EVENTS = 2048

#: Environment variable naming a JSONL sink for default-constructed
#: event logs (the chaos CI job sets it to capture an artifact).
EVENT_LOG_ENV_VAR = "REPRO_EVENT_LOG"


def current_correlation_id() -> str | None:
    """The correlation ID bound to the calling context, if any."""
    return _CORRELATION.get()


@contextmanager
def correlation_scope(correlation_id: str | None) -> Iterator[None]:
    """Bind a correlation ID for the duration of the ``with`` block."""
    token = _CORRELATION.set(correlation_id)
    try:
        yield
    finally:
        _CORRELATION.reset(token)


class EventLogHandler(logging.Handler):
    """Routes :mod:`logging` records into an :class:`EventLog`.

    The adapter between the stdlib logging tree and the structured
    stream: each record becomes a ``log`` event carrying logger name,
    level, rendered message, and the context's correlation ID.
    """

    def __init__(self, log: "EventLog", level: int = logging.INFO) -> None:
        super().__init__(level=level)
        self.log = log

    def emit(self, record: logging.LogRecord) -> None:
        try:
            self.log.emit(
                "log",
                logger=record.name,
                level=record.levelname.lower(),
                message=record.getMessage(),
            )
        except Exception:  # pragma: no cover - logging must never raise
            self.handleError(record)


class EventLog:
    """A bounded in-memory + optional on-disk JSONL stream of events."""

    def __init__(
        self,
        path: str | Path | None = None,
        max_memory_events: int = DEFAULT_MEMORY_EVENTS,
    ) -> None:
        self.path = Path(path) if path is not None else None
        self._lock = threading.Lock()
        self._events: deque[dict] = deque(maxlen=max_memory_events)
        self._sequence = 0
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)

    # -- recording --------------------------------------------------------

    def emit(self, event: str, **fields) -> dict:
        """Record one event; the bound correlation ID is attached unless
        the caller passes an explicit ``correlation_id`` field."""
        record = {
            "ts": time.time(),
            "event": event,
            "correlation_id": fields.pop(
                "correlation_id", current_correlation_id()
            ),
            **fields,
        }
        with self._lock:
            self._sequence += 1
            record["seq"] = self._sequence
            self._events.append(record)
            if self.path is not None:
                line = json.dumps(
                    record, sort_keys=True, ensure_ascii=False, default=str
                )
                with self.path.open("a", encoding="utf-8") as handle:
                    handle.write(line + "\n")
        return record

    def logging_handler(self, level: int = logging.INFO) -> EventLogHandler:
        """A :mod:`logging` handler writing into this event log."""
        return EventLogHandler(self, level=level)

    # -- querying ---------------------------------------------------------

    def records(
        self,
        event: str | None = None,
        correlation_id: str | None = None,
    ) -> list[dict]:
        """In-memory events, oldest first, optionally filtered."""
        with self._lock:
            events = list(self._events)
        if event is not None:
            events = [record for record in events if record["event"] == event]
        if correlation_id is not None:
            events = [
                record
                for record in events
                if record["correlation_id"] == correlation_id
            ]
        return events

    def clear(self) -> None:
        with self._lock:
            self._events.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    def __repr__(self) -> str:
        where = str(self.path) if self.path else "memory"
        return f"EventLog({len(self)} events, sink={where})"
