"""Relation and database instances: the tuples behind the schemas.

Instances are stored **column-major**: one value list per attribute, in
schema order.  Every consumer in this library — profiling statistics,
UCC/IND/FD discovery, CSG cardinality counting, practitioner simulation —
scans whole columns or whole relations, so the column layout serves the
hot paths directly (``column()`` hands back a batch without per-row tuple
gathering) while the row view (``rows``, iteration) is materialised on
demand and memoised per mutation version.

The canonical byte form of a column is produced by
:mod:`repro.relational.columnar` (typed arrays + null bitmask);
:meth:`RelationInstance.encoded_columns` builds it for content
fingerprints.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping, Sequence
from itertools import repeat

from .columnar import ColumnBlock, encode_column
from .datatypes import cast, cast_column
from .errors import InstanceError, UnknownRelationError
from .schema import Relation, Schema

Row = tuple[object, ...]


class RelationInstance:
    """The tuples of one relation, stored column-major."""

    def __init__(
        self,
        relation: Relation,
        rows: Iterable[Sequence[object] | Mapping[str, object]] = (),
    ) -> None:
        self.relation = relation
        self._columns: list[list[object]] = [
            [] for _ in relation.attributes
        ]
        self._count = 0
        self._version = 0
        #: Per-version memos of the row view and of the content hash.
        self._row_memo: tuple[int, tuple[Row, ...]] | None = None
        self._hash_memo: tuple[int, int] | None = None
        self.insert_all(rows)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def insert(self, row: Sequence[object] | Mapping[str, object]) -> Row:
        """Insert a tuple, casting values to the attribute datatypes.

        Accepts either a positional sequence or a name→value mapping;
        missing attributes in a mapping become NULL.
        """
        count, columns = self._typed_columns((row,))
        self._append(count, columns)
        return tuple(column[0] for column in columns)

    def insert_all(
        self, rows: Iterable[Sequence[object] | Mapping[str, object]]
    ) -> None:
        """Insert many tuples as one batch, exactly as repeated
        :meth:`insert` calls would, but all or nothing.

        Every row is checked before any value is cast, and every value is
        cast before any is stored, so a batch that raises inserts nothing.
        A batch of plain ``dict`` rows, as the scenario generators load,
        is gathered a column at a time; :func:`cast_column` then copies a
        column whose values already have its datatype's type without
        casting them.  The version is bumped once per non-empty batch.
        """
        self._append(*self._typed_columns(rows))

    def _typed_columns(
        self, rows: Iterable[Sequence[object] | Mapping[str, object]]
    ) -> tuple[int, list[list[object]]]:
        """The row count and the cast columns of ``rows``; raises
        :class:`InstanceError` on an unknown attribute or a wrong arity
        and :class:`TypeCastError` on a value its datatype refuses."""
        relation = self.relation
        names = relation.attribute_names
        known = frozenset(names)
        rows = list(rows)
        columns: Iterable[Iterable[object]]
        if set(map(type, rows)) == {dict}:
            for row in rows:
                self._check_known(row, known)
            columns = [map(dict.get, rows, repeat(name)) for name in names]
        else:
            checked: list[Sequence[object]] = []
            for row in rows:
                if isinstance(row, Mapping):
                    self._check_known(row, known)
                    checked.append([row.get(name) for name in names])
                else:
                    values = list(row)
                    if len(values) != len(names):
                        raise InstanceError(
                            f"arity mismatch for {relation.name!r}: expected "
                            f"{len(names)}, got {len(values)}"
                        )
                    checked.append(values)
            columns = zip(*checked)
        typed = [
            cast_column(column, attribute.datatype)
            for column, attribute in zip(columns, relation.attributes)
        ]
        return len(rows), typed

    def _check_known(
        self, row: Mapping[str, object], known: frozenset[str]
    ) -> None:
        if not known.issuperset(row):
            raise InstanceError(
                f"unknown attributes for {self.relation.name!r}: "
                f"{sorted(set(row) - known)}"
            )

    def _append(self, count: int, columns: list[list[object]]) -> None:
        if count:
            for column, values in zip(self._columns, columns):
                column.extend(values)
            self._count += count
            self._version += 1

    def delete_where(self, predicate) -> int:
        """Delete tuples matching ``predicate(row_dict)``; returns the count."""
        keep: list[int] = []
        deleted = 0
        for position in range(self._count):
            if predicate(self.row_dict(self._row_at(position))):
                deleted += 1
            else:
                keep.append(position)
        if deleted:
            self._columns = [
                [column[position] for position in keep]
                for column in self._columns
            ]
            self._count = len(keep)
            self._version += 1
        return deleted

    def update_where(self, predicate, updates: Mapping[str, object]) -> int:
        """Set ``updates`` on tuples matching ``predicate``; returns the count."""
        indices = [self.relation.index_of(name) for name in updates]
        new_values = [
            cast(value, self.relation.attributes[index].datatype)
            for index, value in zip(indices, updates.values())
        ]
        updated = 0
        for position in range(self._count):
            if not predicate(self.row_dict(self._row_at(position))):
                continue
            for index, value in zip(indices, new_values):
                self._columns[index][position] = value
            updated += 1
        if updated:
            self._version += 1
        return updated

    def map_column(self, attribute_name: str, transform) -> int:
        """Apply ``transform(value)`` to every non-null value of a column."""
        index = self.relation.index_of(attribute_name)
        datatype = self.relation.attributes[index].datatype
        column = self._columns[index]
        changed = 0
        for position, value in enumerate(column):
            if value is None:
                continue
            new_value = cast(transform(value), datatype)
            if new_value != value:
                column[position] = new_value
                changed += 1
        if changed:
            self._version += 1
        return changed

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------

    @property
    def version(self) -> int:
        """A counter bumped on every mutation.

        Content-keyed caches (:mod:`repro.runtime`) use it to memoise the
        expensive content fingerprint of an instance: an unchanged version
        guarantees unchanged tuples, a bumped version invalidates the
        memoised fingerprint (and with it every derived cache entry).
        """
        return self._version

    def _row_at(self, position: int) -> Row:
        return tuple(column[position] for column in self._columns)

    @property
    def rows(self) -> tuple[Row, ...]:
        memo = self._row_memo
        if memo is not None and memo[0] == self._version:
            return memo[1]
        if self._columns:
            materialised = tuple(zip(*self._columns))
        else:  # zero-attribute relation: len(zip()) == 0 regardless of count
            materialised = ()
        self._row_memo = (self._version, materialised)
        return materialised

    def row_dict(self, row: Row) -> dict[str, object]:
        return dict(zip(self.relation.attribute_names, row))

    def dicts(self) -> Iterator[dict[str, object]]:
        for row in self.rows:
            yield self.row_dict(row)

    def column(self, attribute_name: str) -> list[object]:
        """All values (including NULLs) of one attribute, in tuple order."""
        index = self.relation.index_of(attribute_name)
        return list(self._columns[index])

    def columns(self) -> list[list[object]]:
        """All columns in schema attribute order (copies, batch view)."""
        return [list(column) for column in self._columns]

    def distinct(self, attribute_name: str) -> set[object]:
        """The distinct non-null values of one attribute."""
        index = self.relation.index_of(attribute_name)
        return {
            value for value in self._columns[index] if value is not None
        }

    def encoded_columns(self) -> tuple[ColumnBlock, ...]:
        """The canonical typed-array encoding of every column, in schema
        attribute order.

        Only fingerprinting (:mod:`repro.runtime.cache`) reads it.  An
        assessment encodes nothing: its cache keys hash
        :meth:`content_hash`, and a database is fingerprinted only to
        tell it from another of equal hash, or by the service to key a
        job.  It is not memoised:
        fingerprints memoise their digest, so nothing encodes a version
        twice, and a kept encoding would only hold memory.
        """
        return tuple(encode_column(column) for column in self._columns)

    def content_hash(self) -> int:
        """A Python ``hash`` of the relation's name, attributes, row count
        and values, memoised per mutation version.

        Equal content hashes equal within one process.  Unequal content
        may hash equal too (``1``, ``1.0`` and ``True`` share a hash, as
        do ``0.0`` and ``-0.0``), so a match only names the fingerprints
        that :class:`~repro.runtime.cache.ContentKey` must compare.  Each
        column is hashed as one tuple.
        """
        memo = self._hash_memo
        if memo is not None and memo[0] == self._version:
            return memo[1]
        relation = self.relation
        result = hash(
            (
                relation.name,
                tuple(
                    (attribute.name, attribute.datatype)
                    for attribute in relation.attributes
                ),
                self._count,
                tuple(map(hash, map(tuple, self._columns))),
            )
        )
        self._hash_memo = (self._version, result)
        return result

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows)

    def __repr__(self) -> str:
        return (
            f"RelationInstance({self.relation.name!r}, {self._count} rows)"
        )


class DatabaseInstance:
    """Instances for every relation of a schema."""

    def __init__(self, schema: Schema) -> None:
        self.schema = schema
        self._instances: dict[str, RelationInstance] = {
            relation.name: RelationInstance(relation)
            for relation in schema.relations
        }

    def register(self, relation: Relation) -> RelationInstance:
        """Register a relation added to the schema after construction
        (e.g. by a SQL ``CREATE TABLE``)."""
        if relation.name in self._instances:
            raise InstanceError(
                f"relation {relation.name!r} is already registered"
            )
        instance = RelationInstance(relation)
        self._instances[relation.name] = instance
        return instance

    def __getitem__(self, relation_name: str) -> RelationInstance:
        try:
            return self._instances[relation_name]
        except KeyError:
            raise UnknownRelationError(relation_name) from None

    def __contains__(self, relation_name: str) -> bool:
        return relation_name in self._instances

    def __iter__(self) -> Iterator[RelationInstance]:
        return iter(self._instances.values())

    def insert(self, relation_name: str, row: Sequence[object] | Mapping[str, object]) -> Row:
        return self[relation_name].insert(row)

    def insert_all(
        self,
        relation_name: str,
        rows: Iterable[Sequence[object] | Mapping[str, object]],
    ) -> None:
        self[relation_name].insert_all(rows)

    def total_rows(self) -> int:
        return sum(len(instance) for instance in self._instances.values())

    @property
    def version(self) -> tuple[tuple[str, int], ...]:
        """Per-relation mutation counters, sorted by relation name.

        Changes whenever any relation instance mutates or a new relation
        is registered; cheap to compute and compare, which is all the
        runtime's fingerprint memoisation needs.
        """
        return tuple(
            (name, self._instances[name].version)
            for name in sorted(self._instances)
        )

    def __repr__(self) -> str:
        return (
            f"DatabaseInstance({self.schema.name!r}, "
            f"{self.total_rows()} rows over {len(self._instances)} relations)"
        )
