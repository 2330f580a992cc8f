"""CSG instances (Definition 2): elements per node, links per relationship.

An instance assigns to each node a set of elements (abstract tuple ids
``(relation, i)`` for table nodes, distinct non-null values for attribute
nodes) and to each relationship the set of links between those elements.
The instance is what lets the structure conflict detector turn a
*potential* conflict (cardinality mismatch) into a *counted* one (how many
source elements actually violate the target constraint, Table 3).

The instance is **column-backed**: it keeps each table node's row count
and each attribute node's column of values, in row order, and nothing
else.  Elements and links are derived from them on request:

* an attribute relationship ``R → R.a`` links row ``i`` to the value in
  row ``i`` of column ``a`` (no link for a null), and its inverse links
  the value back to every row that holds it;
* an equality relationship ``R.a → S.b`` (a foreign key) links a value of
  ``R.a`` to the equal value of ``S.b``, if there is one.

:meth:`CsgInstance.image_sets` walks a path one relationship at a time.
It builds the *step map* of each relationship it crosses (row → value,
value → rows, or value → equal partner value) from the columns and drops
it after the walk, so nothing per tuple or per relationship outlives a
call: an instance costs what its columns cost.  Inside the walk a table
element is its row index; the ``(relation, i)`` ids appear only in the
results.

A path must come from the instance's own graph: :meth:`image_sets`
raises :class:`~repro.csg.graph.CsgError` for one that does not.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping, Sequence
from itertools import chain, repeat

from .cardinality import Cardinality, Interval
from .graph import Csg, CsgError, Node, Relationship

Link = tuple[object, object]

#: A functional step maps an element to at most one element (``None``
#: for none); any other step maps it to an iterable of elements.
Step = tuple[Callable[[object], object], bool]


class CsgInstance:
    """The data of a :class:`~repro.csg.graph.Csg`, held as columns.

    ``row_counts`` maps every table node to its number of tuples, and
    ``columns`` every attribute node to its values in tuple order
    (``None`` for NULL).  The instance keeps the given columns as they
    are, so a caller must not mutate them afterwards.
    """

    def __init__(
        self,
        graph: Csg,
        row_counts: Mapping[str, int],
        columns: Mapping[str, Sequence[object]],
    ) -> None:
        self.graph = graph
        self._row_counts = dict(row_counts)
        self._columns = dict(columns)
        for node in graph.nodes:
            if node.is_table:
                found = node.name in self._row_counts
            else:
                column = self._columns.get(node.name)
                found = column is not None and len(column) == (
                    self._row_counts.get(node.relation)
                )
            if not found:
                raise CsgError(f"no data of the right size for {node.name!r}")

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------

    def elements(self, node_name: str) -> frozenset[object]:
        node = self.graph.node(node_name)
        if node.is_table:
            rows = range(self._row_counts[node.name])
            return frozenset(self._external(node, rows))
        return frozenset(self._distinct(node))

    def links(self, relationship: Relationship) -> frozenset[Link]:
        """The links of ``relationship``; none for one of another graph."""
        if not self.graph.has_relationship(relationship):
            return frozenset()
        start, end = relationship.start, relationship.end
        if relationship.is_equality:
            partner = self._partner(end)
            return frozenset(
                (value, partner[value])
                for value in self._distinct(start)
                if value in partner
            )
        table, attribute = (start, end) if start.is_table else (end, start)
        pairs = (
            ((table.name, row), value)
            for row, value in enumerate(self._columns[attribute.name])
            if value is not None
        )
        if start.is_table:
            return frozenset(pairs)
        return frozenset((value, tuple_id) for tuple_id, value in pairs)

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------

    def image_sets(
        self, path: Sequence[Relationship]
    ) -> dict[object, set[object]]:
        """For the composed relationship along ``path``, map every element
        of the path's start node to the set of *distinct* end elements it
        reaches (possibly empty)."""
        origins, images, functional = self._walk(path)
        if functional:
            images = [set() if x is None else {x} for x in images]
        end = path[-1].end
        if end.is_table:
            images = [set(self._external(end, reached)) for reached in images]
        return dict(zip(self._external(path[0].start, origins), images))

    def image_counts(self, path: Sequence[Relationship]) -> dict[object, int]:
        """For the composed relationship along ``path``, map every element
        of the path's start node to the number of *distinct* end elements
        it reaches.  Elements reaching nothing are reported with count 0.
        """
        origins, images, functional = self._walk(path)
        counts = (
            [0 if x is None else 1 for x in images]
            if functional
            else map(len, images)
        )
        return dict(zip(self._external(path[0].start, origins), counts))

    def actual_cardinality(self, path: Sequence[Relationship]) -> Cardinality:
        """The observed cardinality of the composed relationship: the hull
        ``min..max`` of per-element distinct-image counts.

        An empty start node yields the empty cardinality (nothing is
        observed, nothing is prescribed).
        """
        counts = self.image_counts(path)
        if not counts:
            return Cardinality.empty()
        values = sorted(set(counts.values()))
        return Cardinality([Interval(values[0], values[-1])])

    def count_violations(
        self, path: Sequence[Relationship], prescribed: Cardinality
    ) -> int:
        """How many start-node elements have an image count outside
        ``prescribed`` — the violation counts of Table 3."""
        counts = self.image_counts(path)
        return sum(
            1 for count in counts.values() if not prescribed.contains(count)
        )

    def violating_elements(
        self, path: Sequence[Relationship], prescribed: Cardinality
    ) -> dict[object, int]:
        """The violating start elements and their offending image counts."""
        counts = self.image_counts(path)
        return {
            element: count
            for element, count in counts.items()
            if not prescribed.contains(count)
        }

    # ------------------------------------------------------------------
    # Walking a path over the columns
    # ------------------------------------------------------------------

    def _walk(
        self, path: Sequence[Relationship]
    ) -> tuple[Sequence[object], list, bool]:
        """The start node's elements, what each reaches along ``path``,
        and whether every step was functional.

        Table elements are row indices here.  Each origin reaches one
        element (or ``None``) while the steps are functional, and a set
        of elements from the first step that is not.
        """
        if not path:
            raise CsgError("image_sets requires a non-empty path")
        for relationship in path:
            # Step maps are built from a relationship's endpoints: one of
            # another graph would be counted against nodes it does not own.
            if not self.graph.has_relationship(relationship):
                raise CsgError(
                    f"relationship {relationship.label} is not in CSG "
                    f"{self.graph.name!r}"
                )
        start = path[0].start
        origins: Sequence[object] = (
            range(self._row_counts[start.name])
            if start.is_table
            else list(self._distinct(start))
        )
        images: list = list(origins)
        functional = True
        for relationship in path:
            step, step_functional = self._step(relationship)
            if functional and step_functional:
                images = [None if x is None else step(x) for x in images]
            elif functional:
                images = [set() if x is None else set(step(x)) for x in images]
                functional = False
            elif step_functional:
                images = [
                    {y for y in map(step, reached) if y is not None}
                    for reached in images
                ]
            else:
                images = [
                    set(chain.from_iterable(map(step, reached)))
                    for reached in images
                ]
        return origins, images, functional

    def _step(self, relationship: Relationship) -> Step:
        """The step map of one relationship, built from the columns.

        Value → rows is functional (value → row) when no value repeats,
        as on a key column.
        """
        start, end = relationship.start, relationship.end
        if relationship.is_equality:
            return self._partner(end).get, True
        if start.is_table:
            return self._columns[end.name].__getitem__, True
        column = self._columns[start.name]
        last_row = dict(zip(column, range(len(column))))
        last_row.pop(None, None)
        if len(last_row) == len(column) - column.count(None):
            return last_row.get, True  # every value is in one row
        rows: dict[object, list[int]] = {}
        for row, value in enumerate(column):
            if value is not None:
                rows.setdefault(value, []).append(row)
        return (lambda value: rows.get(value, ())), False

    def _partner(self, node: Node) -> dict[object, object]:
        """Each distinct value of ``node``, keyed by every equal value."""
        return {value: value for value in self._distinct(node)}

    def _distinct(self, node: Node) -> set[object]:
        values = set(self._columns[node.name])
        values.discard(None)
        return values

    @staticmethod
    def _external(node: Node, elements: Iterable[object]) -> Iterable[object]:
        """Elements as callers see them: row ``i`` of a table node is the
        tuple id ``(relation, i)``."""
        return zip(repeat(node.name), elements) if node.is_table else elements

    def __repr__(self) -> str:
        return (
            f"CsgInstance({self.graph.name!r}, "
            f"{sum(self._row_counts.values())} rows, "
            f"{len(self._columns)} columns)"
        )
