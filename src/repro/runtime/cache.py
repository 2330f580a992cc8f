"""Content-keyed memoisation of expensive profiling results.

Profiles, discovered dependencies and the structure detector's
violations are pure functions of immutable database instances, yet the
benchmark scripts, the cross-validation folds of :mod:`repro.experiments`
and every re-quote assess the same content over and over.
:class:`ProfileCache` keys every entry on a :class:`ContentKey` of the
database, so

* repeated profiling of unchanged data is a cache hit,
* any mutation (insert/update/delete/map_column) bumps the instance's
  version counter, so a new key no longer equals the old one and every
  derived entry is unreachable — no stale reads, ever,
* two live databases with equal content share entries (common when
  scenarios are rebuilt from the same seed).

A content key is cheap to hash: Python's ``hash`` over each relation's
name, attributes, row count and column values
(:meth:`~repro.relational.instance.RelationInstance.content_hash`,
memoised per instance + version).  Two keys are equal when they hold the
same database at the same version; otherwise only when their databases'
**content fingerprints** are, computed on the first comparison.  A cold
assessment on a fresh runtime compares no keys, so it fingerprints
nothing.

Fingerprints (:func:`fingerprint_database`) hash the **canonical
columnar encoding** of every relation
(:meth:`~repro.relational.instance.RelationInstance.encoded_columns` —
typed arrays + null bitmasks, every section length-prefixed), so they
depend only on the typed values themselves: not on ``repr`` formatting,
not on constraint declaration order, and not on which process computed
them.  Digests are memoised per instance + version; the report store and
the service's job keys address results by them.
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
_content_keys: "weakref.WeakKeyDictionary[Database, ContentKey]" = (
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


class ContentKey:
    """A database's content at one version, as a cache key.

    It hashes :meth:`~repro.relational.instance.RelationInstance.content_hash`
    of every relation and holds its database weakly.  There is one key
    per database and version: ``ContentKey(database)`` returns the same
    object until the database changes, so a re-quote's lookups hit by
    identity.  Keys of two databases are equal only when their
    fingerprints (:func:`fingerprint_database`) are, so equality never
    rests on the Python hash alone.  A key starts resolved when the
    digest memo already holds its version (the service fingerprints
    every scenario to key its job) and resolves itself on the first
    comparison that needs it.  Once its database has changed or been
    collected, an unresolved key equals no other key: that costs a miss,
    never a wrong hit.
    """

    __slots__ = ("_database", "_version", "_hash", "_digest")

    def __new__(cls, database: Database) -> "ContentKey":
        version = database.version
        with _digest_lock:
            key = _content_keys.get(database)
        if key is not None and key._version == version:
            return key
        key = super().__new__(cls)
        key._database = weakref.ref(database)
        key._version = version
        key._hash = hash(
            tuple(
                database.table(relation.name).content_hash()
                for relation in sorted(
                    database.schema.relations, key=lambda r: r.name
                )
            )
        )
        with _digest_lock:
            memo = _database_digests.get(database)
            key._digest = (
                memo[1] if memo is not None and memo[0] == version else None
            )
            _content_keys[database] = key
        return key

    def digest(self) -> str | None:
        """The database's fingerprint at this key's version, or ``None``
        when it was never taken and the database has since changed or
        been collected."""
        if self._digest is None:
            database = self._database()
            if database is not None and database.version == self._version:
                digest = fingerprint_database(database)
                if database.version == self._version:
                    self._digest = digest
        return self._digest

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, ContentKey):
            return NotImplemented
        if self._hash != other._hash:
            return False
        digest = self.digest()
        return digest is not None and digest == other.digest()


def _resolved(key: tuple) -> tuple:
    """``key`` with each content key replaced by its digest."""
    return tuple(
        part.digest() if isinstance(part, ContentKey) else part for part in key
    )


class ProfileCache:
    """An LRU cache of profiling results keyed by database content.

    Keys are ``(ContentKey(database), *operation_key)`` where the
    operation key names the computation and its parameters, e.g.
    ``("profile_column", "songs", "length", "integer")``, ``("uccs", 2)``
    or ``("structure", ContentKey(target), correspondences, ...)``.  Hits
    and misses are counted on the attached
    :class:`~repro.runtime.metrics.RuntimeMetrics`, structure lookups
    included.  A lookup may fingerprint inside the cache's lock, when a
    stored key hashes like the new one; fingerprints take only their own
    digest lock.
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
        key = (ContentKey(database), *operation_key)
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
        """A snapshot of the cache keys, each content key resolved to its
        database's digest (``None`` once it can no longer be taken), sorted.

        Tests compare these across runs: the same scenario must populate
        the same content keys whether or not the run was traced.
        """
        with self._lock:
            keys = list(self._entries)
        return sorted(map(_resolved, keys), key=repr)

    # -- maintenance ------------------------------------------------------

    def invalidate(self, database: Database) -> int:
        """Drop every entry derived from ``database``'s current content.

        Mutations invalidate implicitly (the content key changes); this
        explicit hook exists for callers that want to reclaim memory or
        force recomputation.  Entries of an equal-content twin go too.
        """
        content = ContentKey(database)
        with self._lock:
            stale = [key for key in self._entries if key[0] == content]
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
