"""Content-addressed, crash-safe persistence for assessment results.

The :class:`ReportStore` maps a *content key* — a SHA-1 over the scenario
fingerprint (:func:`repro.runtime.fingerprint_scenario`), the job kind,
and the expected result quality — to the job's serialised result
document.  Because the key covers data content rather than scenario
names, a job submitted twice for identical scenario content is served
from the store the second time, across processes if a spool directory is
configured.

Layout of the spool directory: one ``<key>.rec`` file per entry holding
one record of the job journal's line codec
(:func:`~repro.core.serialize.journal_record_to_line`), the CRC32-checked
line ``{"key": <key>, "document": <doc>}``, written atomically (temp
file + fsync + rename) so a crashed writer never leaves a torn document
behind.  An entry is served only if it decodes
(:func:`~repro.core.serialize.decode_journal_text`) to exactly one
complete record whose ``key`` is the file's key and whose ``document``
is an object.  Anything else is **quarantined** — moved into
``<spool>/quarantine/`` rather than deleted, so operators can inspect
what went wrong — and treated as a miss.  A recovery scan runs on
startup (and on demand via :meth:`recover`), sweeping damaged entries
aside before they can poison reads.

Writes retry under a small :class:`~repro.resilience.RetryPolicy`
(transient ``OSError`` only); ``store.read`` / ``store.write`` /
``store.fsync`` are named fault-injection sites, and spooled text passes
through :func:`~repro.resilience.corrupt_text` so chaos tests can
manufacture exactly the torn files the quarantine machinery exists for.

Hits/misses/puts/quarantines are counted on the attached
:class:`~repro.runtime.metrics.RuntimeMetrics` (``store_hits``,
``store_misses``, ``store_puts``, ``store_quarantined``,
``store_write_retries``), which is how the service's ``/metrics``
endpoint exposes store effectiveness and damage.
"""

from __future__ import annotations

import hashlib
import os
import threading
from pathlib import Path

from ..core.serialize import decode_journal_text, journal_record_to_line
from ..resilience import RetryPolicy, call_with_retry, corrupt_text, fault_point
from ..runtime import RuntimeMetrics, fingerprint_scenario

#: File suffix of a spooled entry (one journal-codec record per file).
SPOOL_SUFFIX = ".rec"

#: Subdirectory of the spool where damaged entries are set aside.
QUARANTINE_DIRNAME = "quarantine"

#: Spool writes retry transient I/O errors a few times with short
#: backoff; deterministic (seeded) so chaos tests are reproducible.
SPOOL_RETRY_POLICY = RetryPolicy(
    max_attempts=3,
    base_delay=0.01,
    max_delay=0.1,
    retry_on=(OSError,),
    seed=0,
)


def job_key(scenario, kind: str, quality: str | None = None) -> str:
    """The content address of one (scenario content, kind, quality) job."""
    digest = hashlib.sha1()
    digest.update(fingerprint_scenario(scenario).encode())
    digest.update(b"\x1f")
    digest.update(kind.encode("utf-8"))
    digest.update(b"\x1f")
    digest.update((quality or "").encode("utf-8"))
    return digest.hexdigest()


def _decode_entry(key: str, text: str) -> dict | None:
    """The document of a spooled entry, or ``None`` if it is damaged."""
    records, torn = decode_journal_text(text)
    if torn or len(records) != 1:
        return None
    document = records[0].get("document")
    if records[0].get("key") != key or not isinstance(document, dict):
        return None
    return document


class SpoolReader:
    """Read-only membership of a spool directory.

    ``efes recover --dry-run`` plans against it: an entry counts only if
    it decodes as :meth:`ReportStore.get` would serve it.  Unlike a
    :class:`ReportStore`, it creates no directory, runs no startup scan
    and quarantines nothing.
    """

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)

    def contains(self, key: str) -> bool:
        path = self.directory / f"{key}{SPOOL_SUFFIX}"
        try:
            text = path.read_text(encoding="utf-8", errors="replace")
        except OSError:
            return False
        return _decode_entry(key, text) is not None


class ReportStore:
    """An in-memory + optional on-disk map of content key -> result doc.

    ``directory=None`` keeps the store purely in memory; with a directory
    every put is spooled to disk and misses fall back to the spool, so
    results survive process restarts.  Damaged spool entries are
    quarantined, never silently served.
    """

    def __init__(
        self,
        directory: str | Path | None = None,
        metrics: RuntimeMetrics | None = None,
    ) -> None:
        self.directory = Path(directory) if directory is not None else None
        self.metrics = metrics if metrics is not None else RuntimeMetrics()
        self._lock = threading.Lock()
        self._entries: dict[str, dict] = {}
        self.last_recovery: dict | None = None
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
            self.recover()

    # -- core protocol ----------------------------------------------------

    def get(self, key: str) -> dict | None:
        """The stored document, or ``None``; counts a hit or a miss."""
        with self._lock:
            doc = self._entries.get(key)
        if doc is None and self.directory is not None:
            doc = self._read_spool(key)
            if doc is not None:
                with self._lock:
                    self._entries[key] = doc
        if doc is None:
            self.metrics.increment("store_misses")
            return None
        self.metrics.increment("store_hits")
        return doc

    def contains(self, key: str) -> bool:
        """Membership without touching the hit/miss counters."""
        with self._lock:
            if key in self._entries:
                return True
        return (
            self.directory is not None and (self._spool_path(key)).exists()
        )

    def put(self, key: str, doc: dict) -> None:
        with self._lock:
            self._entries[key] = doc
        self.metrics.increment("store_puts")
        if self.directory is not None:
            line = journal_record_to_line({"key": key, "document": doc})
            call_with_retry(
                self._write_spool,
                key,
                line,
                policy=SPOOL_RETRY_POLICY,
                on_retry=lambda attempt, delay, exc: self.metrics.increment(
                    "store_write_retries"
                ),
            )

    # -- spool ------------------------------------------------------------

    @property
    def quarantine_directory(self) -> Path | None:
        if self.directory is None:
            return None
        return self.directory / QUARANTINE_DIRNAME

    def _spool_path(self, key: str) -> Path:
        return self.directory / f"{key}{SPOOL_SUFFIX}"

    def _read_spool(self, key: str) -> dict | None:
        path = self._spool_path(key)
        try:
            fault_point("store.read", key=key)
            # Undecodable bytes become U+FFFD, which the checksum rejects.
            text = path.read_text(encoding="utf-8", errors="replace")
        except OSError:
            return None  # missing entry (or injected read fault): a miss
        document = _decode_entry(key, text)
        if document is None:
            self._quarantine(path)
        return document

    def _write_spool(self, key: str, line: str) -> None:
        text = corrupt_text("store.write", line, key=key)
        path = self._spool_path(key)
        temporary = path.with_suffix(
            f".tmp.{os.getpid()}.{threading.get_ident()}"
        )
        fault_point("store.write", key=key)
        with temporary.open("w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            fault_point("store.fsync", key=key)
            os.fsync(handle.fileno())
        temporary.replace(path)

    def _quarantine(self, path: Path) -> None:
        """Set a damaged spool file aside (never served, never deleted)
        under a name no earlier quarantine holds: ``<key>.rec``, then
        ``<key>.1.rec``, ``<key>.2.rec`` and so on."""
        quarantine = self.quarantine_directory
        try:
            quarantine.mkdir(parents=True, exist_ok=True)
            with self._lock:
                target, index = quarantine / path.name, 0
                while target.exists():
                    index += 1
                    target = quarantine / f"{path.stem}.{index}{SPOOL_SUFFIX}"
                path.replace(target)
        except FileNotFoundError:
            return  # another reader set it aside first
        except OSError:  # pragma: no cover - permissions
            try:
                path.unlink()
            except OSError:
                return
        self.metrics.increment("store_quarantined")

    # -- recovery ---------------------------------------------------------

    def recover(self) -> dict:
        """Scan the spool, quarantining every damaged entry.

        Runs automatically on startup for directory-backed stores, so a
        crash mid-write (or bit rot between runs) costs exactly the
        damaged entries — the healthy remainder keeps serving.  Returns
        and remembers a summary: ``{"scanned", "valid", "quarantined"}``.
        """
        summary = {"scanned": 0, "valid": 0, "quarantined": 0}
        if self.directory is None:
            self.last_recovery = summary
            return summary
        for path in sorted(self.directory.glob(f"*{SPOOL_SUFFIX}")):
            summary["scanned"] += 1
            try:
                text = path.read_text(encoding="utf-8", errors="replace")
            except OSError:  # pragma: no cover - concurrent removal
                continue
            if _decode_entry(path.stem, text) is None:
                self._quarantine(path)
                summary["quarantined"] += 1
            else:
                summary["valid"] += 1
        # Stale temp files from a crashed writer are garbage, not data:
        # they were never renamed into place, so nothing references them.
        for stale in self.directory.glob("*.tmp.*"):
            try:
                stale.unlink()
            except OSError:  # pragma: no cover - concurrent cleanup
                pass
        self.last_recovery = summary
        return summary

    # -- introspection ----------------------------------------------------

    def spooled_count(self) -> int:
        if self.directory is None:
            return 0
        return sum(1 for _ in self.directory.glob(f"*{SPOOL_SUFFIX}"))

    def quarantined_count(self) -> int:
        """Damaged entries currently set aside in the quarantine dir."""
        quarantine = self.quarantine_directory
        if quarantine is None or not quarantine.is_dir():
            return 0
        return sum(1 for _ in quarantine.glob(f"*{SPOOL_SUFFIX}"))

    def stats(self) -> dict:
        return {
            "entries": len(self),
            "spooled": self.spooled_count(),
            "quarantined": self.quarantined_count(),
        }

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __repr__(self) -> str:
        where = str(self.directory) if self.directory else "memory"
        return f"ReportStore({len(self)} entries, spool={where})"
