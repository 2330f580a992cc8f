"""The write-ahead job journal.

A :class:`JobJournal` is an append-only JSONL log split into rotating
segment files (``journal-00000001.wal``, ``journal-00000002.wal``, …).
Each line is a checksummed record (codec in
:mod:`repro.core.serialize`): a torn write — the process killed mid
``write(2)`` — leaves a line that fails its CRC or lacks its newline,
and replay stops exactly there, WAL-style, instead of trusting garbage.

Three record types cover the scheduler's terminal-relevant transitions:

* ``submitted`` — written (and fsynced, under the default
  :class:`FlushPolicy`) **before** the submission is acknowledged; this
  is the write-ahead contract that makes "every acknowledged job is
  eventually settled" provable,
* ``dispatched`` — advisory: the job entered a worker slot, so a crash
  now means an *interrupted* job (re-executed idempotently) rather than
  a merely queued one,
* ``settled`` — the job reached a terminal state; written after the
  result document is durably in the report store, so a settled-done
  record always has its result behind it.

``dispatched``/``settled`` records ride the batching policy — losing
them merely causes an idempotent re-execution — while ``submitted``
records are fsynced before the ack returns (``fsync_on_ack``).

Fault sites: ``journal.append``, ``journal.fsync``, ``journal.replay``
(:func:`repro.resilience.fault_point`), and append payloads pass through
:func:`~repro.resilience.corrupt_text` so chaos plans can tear records
without a process kill.  The crash-simulation harness injects real
mid-append kills through the ``failpoint`` hook instead: a
FoundationDB-style buggify point that can truncate the line being
written and poison the journal (every later call raises
:class:`JournalCrashed`), modelling a ``kill -9`` precisely at a record
boundary.
"""

from __future__ import annotations

import dataclasses
import os
import threading
import time
from collections.abc import Callable
from pathlib import Path

from ..core.serialize import decode_journal_text, journal_record_to_line
from ..resilience import corrupt_text, fault_point

#: Segment file name pattern; the numeric part orders replay.
SEGMENT_PATTERN = "journal-{index:08d}.wal"
SEGMENT_GLOB = "journal-*.wal"


class JournalError(OSError):
    """The journal could not append or flush (submission must not ack)."""


class JournalCrashed(JournalError):
    """A simulated crash killed this journal; every later call raises.

    Raised by the crash-simulation ``failpoint`` and then persistently:
    a crashed journal is fenced out exactly like a dead process — the
    abandoned scheduler threads of a "killed" epoch cannot write into
    the epoch that recovers after them.
    """


@dataclasses.dataclass(frozen=True)
class FlushPolicy:
    """When the journal fsyncs: the durability/throughput dial.

    * ``fsync_on_ack`` — ``submitted`` records fsync before the append
      returns, so an acknowledged job is on disk.  Disabling it trades
      the exactly-once guarantee for latency (documented, not default).
    * ``fsync_every_records`` — batch size for advisory records
      (``dispatched``/``settled``): fsync once this many appends are
      pending.  ``1`` = every record, ``0`` = never auto-fsync (rotate,
      flush, and close still do).
    * ``fsync_every_seconds`` — also fsync when this much time passed
      since the last one (checked at append; no timer thread).
    """

    fsync_on_ack: bool = True
    fsync_every_records: int = 8
    fsync_every_seconds: float | None = 0.05

    @classmethod
    def strict(cls) -> "FlushPolicy":
        """fsync every single record (the crash-sim worst case)."""
        return cls(fsync_on_ack=True, fsync_every_records=1,
                   fsync_every_seconds=None)

    @classmethod
    def batched(cls, records: int = 8,
                seconds: float | None = 0.05) -> "FlushPolicy":
        """Group-commit advisory records; acks still fsync (default)."""
        return cls(fsync_on_ack=True, fsync_every_records=records,
                   fsync_every_seconds=seconds)

    @classmethod
    def relaxed(cls) -> "FlushPolicy":
        """Never auto-fsync: the OS decides.  Fastest, weakest."""
        return cls(fsync_on_ack=False, fsync_every_records=0,
                   fsync_every_seconds=None)

    @classmethod
    def parse(cls, value: str) -> "FlushPolicy":
        """CLI spelling: ``strict`` | ``batch`` | ``batch:N`` | ``none``."""
        text = value.strip().lower()
        if text == "strict":
            return cls.strict()
        if text == "none":
            return cls.relaxed()
        if text == "batch":
            return cls.batched()
        if text.startswith("batch:"):
            try:
                records = int(text.split(":", 1)[1])
            except ValueError:
                raise ValueError(
                    f"invalid flush policy {value!r}: batch:N needs an "
                    "integer N"
                ) from None
            if records < 1:
                raise ValueError(
                    f"invalid flush policy {value!r}: N must be positive"
                )
            return cls.batched(records=records)
        raise ValueError(
            f"invalid flush policy {value!r}; expected strict, batch, "
            "batch:N, or none"
        )


# ----------------------------------------------------------------------
# Record constructors — the only shapes the scheduler and recovery write.
# ----------------------------------------------------------------------


def submitted_record(
    job,
    *,
    scenario_ref: str | None = None,
    seed: int | None = None,
    payload_ref: str | None = None,
    recovered: bool = False,
) -> dict:
    """The write-ahead record acknowledging one job submission.

    Carries everything recovery needs to rebuild the job: the scenario
    reference + seed for assess/estimate jobs, or a ``payload_ref`` the
    recovery payload resolver understands for callable jobs.
    """
    record = {
        "type": "submitted",
        "job_id": job.id,
        "kind": job.kind,
        "scenario": job.scenario_name,
        "quality": job.quality,
        "priority": job.priority,
        "timeout": job.timeout,
        "store_key": job.store_key,
        "correlation_id": job.correlation_id,
        "idempotency_key": job.idempotency_key,
        "ts": time.time(),
    }
    if scenario_ref is not None:
        record["scenario_ref"] = scenario_ref
    if seed is not None:
        record["seed"] = seed
    if payload_ref is not None:
        record["payload_ref"] = payload_ref
    if recovered:
        record["recovered"] = True
    return record


def dispatched_record(job_id: str) -> dict:
    return {"type": "dispatched", "job_id": job_id, "ts": time.time()}


def settled_record(
    job_id: str,
    state: str,
    *,
    error: str | None = None,
    store_key: str | None = None,
    from_store: bool = False,
    idempotency_key: str | None = None,
    kind: str | None = None,
    scenario: str | None = None,
) -> dict:
    """A terminal transition (see :func:`settled_record_of`)."""
    record: dict = {
        "type": "settled",
        "job_id": job_id,
        "state": state,
        "ts": time.time(),
    }
    if error is not None:
        record["error"] = error
    if store_key is not None:
        record["store_key"] = store_key
    if from_store:
        record["from_store"] = True
    if idempotency_key is not None:
        record["idempotency_key"] = idempotency_key
    if kind is not None:
        record["kind"] = kind
    if scenario is not None:
        record["scenario"] = scenario
    return record


def settled_record_of(job) -> dict:
    """The settled record of a terminal job.

    Live settles, keyed store hits and recovery all journal a terminal
    job through here, so the record always matches the job.
    """
    return settled_record(
        job.id,
        job.state.value,
        error=job.error,
        store_key=job.store_key,
        from_store=job.from_store,
        idempotency_key=job.idempotency_key,
        kind=job.kind,
        scenario=job.scenario_name,
    )


class JobJournal:
    """Checksummed, segment-rotating JSONL write-ahead log of job state.

    Opening a journal never writes: the active segment is created
    lazily on the first append, always as a **fresh** segment (one
    index past the highest on disk) — appending after a torn tail would
    bury every later record behind the damage, so a restarted journal
    leaves old segments read-only for replay and compaction.
    """

    def __init__(
        self,
        directory: str | Path,
        *,
        flush: FlushPolicy | None = None,
        segment_max_records: int = 1024,
        metrics=None,
        clock: Callable[[], float] = time.monotonic,
        failpoint: Callable[[int, str], tuple[str, int]] | None = None,
    ) -> None:
        if segment_max_records < 1:
            raise ValueError(
                f"segment_max_records must be positive, "
                f"got {segment_max_records}"
            )
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.flush_policy = flush if flush is not None else FlushPolicy()
        self.segment_max_records = segment_max_records
        self.metrics = metrics
        self._clock = clock
        #: Crash-simulation hook: ``failpoint(append_index, line)``
        #: returns ``("ok", 0)`` to proceed, ``("crash", 0)`` to die
        #: before writing, or ``("torn", keep_bytes)`` to write a
        #: durable prefix of the line and then die.
        self.failpoint = failpoint
        self.crashed = False

        self._lock = threading.RLock()
        self._handle = None
        self._active_index: int | None = None
        self._active_records = 0
        #: Segments present when this journal was opened — the replay
        #: set, and exactly what :meth:`compact` may delete.
        self.stale_segments: list[Path] = self.segments()

        self.appended_records = 0
        self.fsync_count = 0
        self._pending_records = 0
        self._last_fsync_at = self._clock()
        self.rotations = 0
        self.append_failures = 0
        self.closed = False

    # -- segment plumbing --------------------------------------------------

    def segments(self) -> list[Path]:
        """All segment files on disk, in replay order."""
        return sorted(self.directory.glob(SEGMENT_GLOB))

    def _segment_path(self, index: int) -> Path:
        return self.directory / SEGMENT_PATTERN.format(index=index)

    def _next_index(self) -> int:
        highest = 0
        for path in self.segments():
            try:
                highest = max(highest, int(path.stem.split("-", 1)[1]))
            except (IndexError, ValueError):  # pragma: no cover - foreign file
                continue
        return highest + 1

    def _ensure_open_locked(self) -> None:
        if self.crashed:
            raise JournalCrashed("journal crashed (simulated kill)")
        if self.closed:
            raise JournalError("journal is closed")
        if self._handle is None:
            self._active_index = self._next_index()
            self._active_records = 0
            self._handle = open(  # noqa: SIM115 - held across appends
                self._segment_path(self._active_index),
                "a",
                encoding="utf-8",
            )

    def _rotate_locked(self) -> None:
        self._fsync_locked()
        self._handle.close()
        self._handle = None
        self.rotations += 1
        self._ensure_open_locked()

    # -- appending ---------------------------------------------------------

    def append(self, record: dict, *, durable: bool | None = None) -> None:
        """Append one record; raises :class:`JournalError` on failure.

        ``durable=True`` forces an fsync before returning (the
        ``submitted`` ack path under ``fsync_on_ack``); ``durable=False``
        lets the record ride the batching policy; ``None`` picks based
        on the record type.
        """
        if durable is None:
            durable = (
                record.get("type") == "submitted"
                and self.flush_policy.fsync_on_ack
            )
        line = journal_record_to_line(record)
        line = corrupt_text(
            "journal.append", line, type=record.get("type", "")
        )
        with self._lock:
            self._ensure_open_locked()
            fault_point(
                "journal.append",
                type=record.get("type", ""),
                job_id=record.get("job_id", ""),
            )
            if self.failpoint is not None:
                action, keep = self.failpoint(self.appended_records, line)
                if action != "ok":
                    self.crashed = True
                    if action == "torn" and keep > 0:
                        # The torn prefix reaches the disk — the worst
                        # case a real kill -9 can leave behind.
                        self._handle.write(line[:keep])
                        self._handle.flush()
                        os.fsync(self._handle.fileno())
                    raise JournalCrashed(
                        f"simulated crash at append #{self.appended_records}"
                        f" ({action})"
                    )
            try:
                self._handle.write(line)
                self._handle.flush()
            except OSError as exc:
                self.append_failures += 1
                raise JournalError(f"journal append failed: {exc}") from exc
            self.appended_records += 1
            self._active_records += 1
            self._pending_records += 1
            if self.metrics is not None:
                self.metrics.increment("journal_appends")
            if durable or self._batch_due_locked():
                self._fsync_locked()
            if self._active_records >= self.segment_max_records:
                self._rotate_locked()

    def _batch_due_locked(self) -> bool:
        policy = self.flush_policy
        if (
            policy.fsync_every_records
            and self._pending_records >= policy.fsync_every_records
        ):
            return True
        return bool(
            policy.fsync_every_seconds is not None
            and self._clock() - self._last_fsync_at
            >= policy.fsync_every_seconds
        )

    def _fsync_locked(self) -> None:
        if self._handle is None or self._pending_records == 0:
            self._last_fsync_at = self._clock()
            return
        fault_point("journal.fsync", segment=self._active_index)
        try:
            os.fsync(self._handle.fileno())
        except OSError as exc:
            raise JournalError(f"journal fsync failed: {exc}") from exc
        self.fsync_count += 1
        self._pending_records = 0
        self._last_fsync_at = self._clock()
        if self.metrics is not None:
            self.metrics.increment("journal_fsyncs")

    def flush(self) -> None:
        """Force pending records to disk (drain, shutdown, checkpoints)."""
        with self._lock:
            if self.crashed:
                raise JournalCrashed("journal crashed (simulated kill)")
            self._fsync_locked()

    # -- replay + compaction ----------------------------------------------

    def replay(self) -> tuple[list[dict], dict]:
        """All decodable records across segments, oldest first.

        Returns ``(records, stats)`` where stats counts segments read
        and torn lines skipped.  Each segment is decoded with WAL
        truncation semantics (:func:`decode_journal_text`): a torn tail
        costs only the tail of its own segment — records in later
        segments (written after a restart) remain visible.
        """
        fault_point("journal.replay", directory=str(self.directory))
        records: list[dict] = []
        torn = 0
        segments = self.segments()
        for path in segments:
            try:
                text = path.read_text(encoding="utf-8", errors="replace")
            except OSError:  # pragma: no cover - concurrent removal
                continue
            decoded, segment_torn = decode_journal_text(text)
            records.extend(decoded)
            torn += segment_torn
        if self.metrics is not None and torn:
            self.metrics.increment("journal_torn_records", torn)
        return records, {
            "segments": len(segments),
            "records": len(records),
            "torn_records": torn,
        }

    def compact(self) -> int:
        """Delete the segments that predate this journal instance.

        Recovery calls this **after** re-stating every live job into the
        fresh active segment, so the deleted segments contain only
        settled history (or re-stated copies).  Returns the number of
        segment files removed.
        """
        removed = 0
        with self._lock:
            for path in self.stale_segments:
                if (
                    self._active_index is not None
                    and path == self._segment_path(self._active_index)
                ):  # pragma: no cover - stale never contains active
                    continue
                try:
                    path.unlink()
                    removed += 1
                except OSError:  # pragma: no cover - concurrent cleanup
                    continue
            self.stale_segments = []
        if self.metrics is not None and removed:
            self.metrics.increment("journal_segments_compacted", removed)
        return removed

    # -- lifecycle + stats -------------------------------------------------

    def close(self) -> None:
        with self._lock:
            if self.closed:
                return
            if self._handle is not None and not self.crashed:
                try:
                    self._fsync_locked()
                except JournalError:  # pragma: no cover - dying disk
                    pass
                self._handle.close()
                self._handle = None
            self.closed = True

    def stats(self) -> dict:
        """The ``/healthz`` view: volume, lag, and segment shape."""
        with self._lock:
            return {
                "directory": str(self.directory),
                "segments": len(self.segments()),
                "active_segment": self._active_index,
                "active_segment_records": self._active_records,
                "appended_records": self.appended_records,
                "fsync_count": self.fsync_count,
                #: Records appended but not yet fsynced — the journal
                #: lag a crash right now would lose (advisory records
                #: only; acks are always behind an fsync).
                "lag_records": self._pending_records,
                "append_failures": self.append_failures,
                "crashed": self.crashed,
            }

    def __enter__(self) -> "JobJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"JobJournal({str(self.directory)!r}, "
            f"{self.appended_records} record(s), "
            f"{len(self.segments())} segment(s))"
        )
