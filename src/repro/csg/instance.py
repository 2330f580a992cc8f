"""CSG instances (Definition 2): elements per node, links per relationship.

An instance assigns to each node a set of elements (abstract tuple ids for
table nodes, distinct values for attribute nodes) and to each relationship
the set of links between those elements.  The instance is what lets the
structure conflict detector turn a *potential* conflict (cardinality
mismatch) into a *counted* one (how many source elements actually violate
the target constraint, Table 3).

Links are keyed by the identity of the graph's relationship objects, so a
path must come from the instance's own graph: :meth:`CsgInstance.image_sets`
raises :class:`~repro.csg.graph.CsgError` for one that does not.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterable, Sequence

from .cardinality import Cardinality, Interval
from .graph import Csg, CsgError, Relationship

Link = tuple[object, object]


class CsgInstance:
    """Elements and links for a :class:`~repro.csg.graph.Csg`."""

    def __init__(self, graph: Csg) -> None:
        self.graph = graph
        self._elements: dict[str, set[object]] = {
            node.name: set() for node in graph.nodes
        }
        self._links: dict[int, set[Link]] = {}

    # ------------------------------------------------------------------
    # Population
    # ------------------------------------------------------------------

    def add_elements(self, node_name: str, elements: Iterable[object]) -> None:
        if node_name not in self._elements:
            raise CsgError(f"unknown CSG node: {node_name!r}")
        self._elements[node_name].update(elements)

    def add_links(self, relationship: Relationship, links: Iterable[Link]) -> None:
        """Add links to a relationship and mirror them on its inverse."""
        forward = self._links.setdefault(id(relationship), set())
        backward = self._links.setdefault(id(relationship.inverse), set())
        for start_element, end_element in links:
            forward.add((start_element, end_element))
            backward.add((end_element, start_element))

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------

    def elements(self, node_name: str) -> frozenset[object]:
        try:
            return frozenset(self._elements[node_name])
        except KeyError:
            raise CsgError(f"unknown CSG node: {node_name!r}") from None

    def links(self, relationship: Relationship) -> frozenset[Link]:
        return frozenset(self._links.get(id(relationship), ()))

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------

    def image_sets(
        self, path: Sequence[Relationship]
    ) -> dict[object, set[object]]:
        """For the composed relationship along ``path``, map every element
        of the path's start node to the set of *distinct* end elements it
        reaches (possibly empty)."""
        if not path:
            raise CsgError("image_sets requires a non-empty path")
        for relationship in path:
            # Links are keyed by object identity: a relationship of another
            # graph would find none and silently count zero images.
            if not self.graph.has_relationship(relationship):
                raise CsgError(
                    f"relationship {relationship.label} is not in CSG "
                    f"{self.graph.name!r}"
                )
        start_node = path[0].start.name
        reachable: dict[object, set[object]] = {
            element: {element} for element in self._elements[start_node]
        }
        for relationship in path:
            adjacency: dict[object, set[object]] = defaultdict(set)
            for a, b in self._links.get(id(relationship), ()):
                adjacency[a].add(b)
            reachable = {
                origin: set().union(
                    *(adjacency.get(current, set()) for current in frontier)
                )
                if frontier
                else set()
                for origin, frontier in reachable.items()
            }
        return reachable

    def image_counts(self, path: Sequence[Relationship]) -> dict[object, int]:
        """For the composed relationship along ``path``, map every element
        of the path's start node to the number of *distinct* end elements
        it reaches.  Elements reaching nothing are reported with count 0.
        """
        return {
            origin: len(frontier)
            for origin, frontier in self.image_sets(path).items()
        }

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

    def __repr__(self) -> str:
        total_elements = sum(len(values) for values in self._elements.values())
        total_links = sum(len(links) for links in self._links.values()) // 2
        return (
            f"CsgInstance({self.graph.name!r}, {total_elements} elements, "
            f"{total_links} link pairs)"
        )
