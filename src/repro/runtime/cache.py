"""Content-keyed memoisation of expensive profiling results.

Profiles, discovered dependencies and the structure detector's
violations are pure functions of immutable database instances, yet the
benchmark scripts, the cross-validation folds of :mod:`repro.experiments`
and every re-quote assess the same content over and over.
:class:`ProfileCache` keys every entry on a **content fingerprint** of
the database, so

* repeated profiling of unchanged data is a cache hit,
* any mutation (insert/update/delete/map_column) bumps the instance's
  version counter, which invalidates the memoised fingerprint and makes
  every derived entry unreachable — no stale reads, ever,
* two databases with byte-identical content share entries (common when
  scenarios are rebuilt from the same seed).

Fingerprints hash the **canonical columnar encoding** of every relation
(:meth:`~repro.relational.instance.RelationInstance.encoded_columns` —
typed arrays + null bitmasks, every section length-prefixed), so keys
depend only on the typed values themselves: not on ``repr`` formatting,
not on constraint declaration order, and not on which process computed
the entry.  Hashing is O(bytes) — far cheaper than the profiling it
saves — and digests are memoised per instance + version, so the
steady-state key cost is a dict lookup.
"""

from __future__ import annotations

import hashlib
import struct
import threading
import weakref
from collections import OrderedDict
from collections.abc import Callable, Hashable

from ..relational.database import Database
from ..relational.instance import RelationInstance
from .metrics import RuntimeMetrics

#: Default entry bound; profiling results are small compared to the
#: instances they describe, so the bound mainly guards runaway scripts.
DEFAULT_MAX_ENTRIES = 1024

_relation_digests: "weakref.WeakKeyDictionary[RelationInstance, tuple[int, str]]" = (
    weakref.WeakKeyDictionary()
)
_database_digests: "weakref.WeakKeyDictionary[Database, tuple[tuple, str]]" = (
    weakref.WeakKeyDictionary()
)
_digest_lock = threading.Lock()


def _sized(blob: bytes) -> bytes:
    """Length-prefix a section so adjacent sections cannot run together."""
    return struct.pack("<q", len(blob)) + blob


def _relation_digest(instance: RelationInstance) -> str:
    with _digest_lock:
        memo = _relation_digests.get(instance)
        if memo is not None and memo[0] == instance.version:
            return memo[1]
    digest = hashlib.sha1()
    relation = instance.relation
    digest.update(_sized(relation.name.encode("utf-8")))
    for attribute in relation.attributes:
        digest.update(_sized(attribute.name.encode("utf-8")))
        digest.update(_sized(str(attribute.datatype).encode("utf-8")))
    for block in instance.encoded_columns():
        digest.update(_sized(block.canonical_bytes()))
    result = digest.hexdigest()
    with _digest_lock:
        _relation_digests[instance] = (instance.version, result)
    return result


def fingerprint_database(database: Database) -> str:
    """A stable content hash of a database's schema shape and tuples.

    Covers relation names, attribute names/datatypes, declared
    constraints, and every tuple — but not the database *name*, so
    identically shaped and filled databases share cache entries.
    Constraints are hashed in sorted order: declaring the same constraint
    set in a different order yields the same fingerprint.
    """
    version = database.version
    with _digest_lock:
        memo = _database_digests.get(database)
        if memo is not None and memo[0] == version:
            return memo[1]
    digest = hashlib.sha1()
    for relation in sorted(database.schema.relations, key=lambda r: r.name):
        digest.update(
            _sized(_relation_digest(database.table(relation.name)).encode())
        )
    for constraint_repr in sorted(
        repr(constraint) for constraint in database.schema.constraints
    ):
        digest.update(
            _sized(constraint_repr.encode("utf-8", "backslashreplace"))
        )
    result = digest.hexdigest()
    with _digest_lock:
        _database_digests[database] = (version, result)
    return result


def fingerprint_scenario(scenario) -> str:
    """A stable content hash of a whole integration scenario.

    Combines the content fingerprints of every source database (in
    declaration order), the target database, and the correspondences —
    but, like :func:`fingerprint_database`, not the scenario *name*, so
    identically shaped scenarios share report-store entries.  This is the
    key the assessment service's :class:`~repro.service.ReportStore`
    addresses results by.
    """
    digest = hashlib.sha1()
    for source in scenario.sources:
        digest.update(_sized(fingerprint_database(source).encode()))
        correspondences = scenario.correspondences.get(source.name)
        for correspondence in sorted(
            correspondences or (),
            key=lambda c: (c.source, c.target, c.confidence),
        ):
            digest.update(
                _sized(repr(correspondence).encode("utf-8", "backslashreplace"))
            )
    digest.update(_sized(fingerprint_database(scenario.target).encode()))
    return digest.hexdigest()


class ProfileCache:
    """An LRU cache of profiling results keyed by database content.

    Keys are ``(fingerprint, *operation_key)`` where the operation key
    names the computation and its parameters, e.g.
    ``("profile_column", "songs", "length", "integer")``, ``("uccs", 2)``
    or ``("structure", target fingerprint, correspondences, ...)``.  Hits
    and misses are counted on the attached
    :class:`~repro.runtime.metrics.RuntimeMetrics`, structure lookups
    included.
    """

    def __init__(
        self,
        max_entries: int = DEFAULT_MAX_ENTRIES,
        metrics: RuntimeMetrics | None = None,
    ) -> None:
        self.max_entries = max_entries
        self.metrics = metrics or RuntimeMetrics()
        self._lock = threading.Lock()
        self._entries: OrderedDict[tuple, object] = OrderedDict()

    # -- core protocol ----------------------------------------------------

    def get_or_compute(
        self,
        database: Database,
        operation_key: tuple[Hashable, ...],
        compute: Callable[[], object],
    ) -> object:
        key = (fingerprint_database(database), *operation_key)
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self.metrics.increment("cache_hits")
                return self._entries[key]
        # Compute outside the lock: concurrent misses on the same key may
        # compute twice, but both results are identical (pure functions)
        # and the second store is a harmless overwrite.
        self.metrics.increment("cache_misses")
        result = compute()
        with self._lock:
            self._entries[key] = result
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.metrics.increment("cache_evictions")
        return result

    def entries(self) -> list[tuple[tuple, object]]:
        """A snapshot of ``(key, value)`` pairs in LRU order (oldest
        first)."""
        with self._lock:
            return list(self._entries.items())

    def keys(self) -> list[tuple]:
        """A snapshot of the resolved cache keys, sorted.

        Tests compare these across runs: the same scenario must populate
        the same content keys whether or not the run was traced.
        """
        with self._lock:
            return sorted(self._entries, key=repr)

    # -- maintenance ------------------------------------------------------

    def invalidate(self, database: Database) -> int:
        """Drop every entry derived from ``database``'s current content.

        Mutations invalidate implicitly (the fingerprint changes); this
        explicit hook exists for callers that want to reclaim memory or
        force recomputation.
        """
        prefix = fingerprint_database(database)
        with self._lock:
            stale = [key for key in self._entries if key[0] == prefix]
            for key in stale:
                del self._entries[key]
        return len(stale)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __repr__(self) -> str:
        return (
            f"ProfileCache({len(self)}/{self.max_entries} entries, "
            f"{self.metrics.cache_hits} hits, "
            f"{self.metrics.cache_misses} misses)"
        )
