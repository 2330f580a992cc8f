"""Durability: a write-ahead job journal and crash recovery.

The resilience layer (:mod:`repro.resilience`) covers *partial*
failures — injected exceptions, torn store files, transient I/O.  This
package closes the remaining gap: **process death**.  A ``kill -9`` of ``efes
serve`` used to lose every queued and running job; with a journal
directory configured, every acknowledged job survives a crash and is
settled exactly once after restart.

* :class:`JobJournal` — a checksummed, segment-rotating JSONL
  write-ahead log (records ``submitted``/``dispatched``/``settled``,
  codecs in :mod:`repro.core.serialize`) with configurable fsync
  batching (:class:`FlushPolicy`) and named fault-injection sites
  ``journal.append`` / ``journal.fsync`` / ``journal.replay``,
* :class:`RecoveryManager` — startup replay of the journal against the
  :class:`~repro.service.ReportStore`: jobs that never settled are
  re-enqueued (interrupted ``RUNNING`` jobs are marked for idempotent
  re-execution), jobs whose result is already spooled settle instantly
  from the store, the idempotency-key dedup window is rebuilt so a
  client retrying a ``submit`` after a crash neither loses nor
  double-runs work, and fully-settled segments are compacted away.

The proof is the deterministic crash-simulation harness in
``tests/sim/``: a seeded :class:`CrashSchedule` kills the
scheduler+store+journal stack at arbitrary record boundaries (including
mid-append torn writes) and asserts the exactly-once-settlement
invariant across hundreds of seeds, FoundationDB-style.
"""

from .journal import (
    FlushPolicy,
    JobJournal,
    JournalCrashed,
    JournalError,
    dispatched_record,
    settled_record,
    submitted_record,
)
from .recovery import JournalReplay, RecoveryManager, ReplayedJob

__all__ = [
    "FlushPolicy",
    "JobJournal",
    "JournalCrashed",
    "JournalError",
    "JournalReplay",
    "RecoveryManager",
    "ReplayedJob",
    "dispatched_record",
    "settled_record",
    "submitted_record",
]
