"""Cardinality-constrained schema graphs (CSGs), Definition 1 of the paper.

A CSG is a tuple Γ = (N, P, κ): nodes, directed relationships between
nodes, and a prescribed cardinality per relationship.  Nodes are either
*table nodes* (the identity of tuples) or *attribute nodes* (the distinct
values of an attribute).  Relationships come in two flavours:

* ``attribute`` relationships link tuples to their attribute values
  (ρ_table→attr and its inverse), and
* ``equality`` relationships link equal elements of two attribute nodes —
  this is how foreign keys (dashed lines in Fig. 4) and correspondence-
  induced value sharing are modelled.

Every relationship is stored together with its inverse so both directions
carry their own prescribed cardinality (e.g. κ(ρ_tracks→record) = 1 but
κ(ρ_record→tracks) = 1..*).
"""

from __future__ import annotations

import dataclasses
import enum
from collections.abc import Iterator

from .cardinality import ANY, Cardinality


class CsgError(ValueError):
    """A CSG is being built or queried inconsistently."""


class NodeKind(enum.Enum):
    TABLE = "table"
    ATTRIBUTE = "attribute"


@dataclasses.dataclass(frozen=True)
class Node:
    """A CSG node.  ``name`` is unique within its graph.

    For attribute nodes created from a relational schema the name is
    ``relation.attribute``; ``relation``/``attribute`` keep the provenance
    for reporting.
    """

    name: str
    kind: NodeKind
    relation: str | None = None
    attribute: str | None = None

    @property
    def is_table(self) -> bool:
        return self.kind is NodeKind.TABLE

    @property
    def is_attribute(self) -> bool:
        return self.kind is NodeKind.ATTRIBUTE

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


class RelationshipKind(enum.Enum):
    ATTRIBUTE = "attribute"
    EQUALITY = "equality"


class Relationship:
    """A directed relationship ρ_{start→end} with a prescribed cardinality."""

    __slots__ = ("start", "end", "kind", "cardinality", "_inverse", "label")

    def __init__(
        self,
        start: Node,
        end: Node,
        kind: RelationshipKind,
        cardinality: Cardinality = ANY,
        label: str | None = None,
    ) -> None:
        self.start = start
        self.end = end
        self.kind = kind
        self.cardinality = cardinality
        self.label = label or f"{start.name}->{end.name}"
        self._inverse: Relationship | None = None

    @property
    def inverse(self) -> "Relationship":
        if self._inverse is None:
            raise CsgError(f"relationship {self.label} has no inverse bound")
        return self._inverse

    def bind_inverse(self, other: "Relationship") -> None:
        if other.start is not self.end or other.end is not self.start:
            raise CsgError("inverse relationship endpoints do not mirror")
        self._inverse = other
        other._inverse = self

    @property
    def is_equality(self) -> bool:
        return self.kind is RelationshipKind.EQUALITY

    def __repr__(self) -> str:
        return f"Relationship({self.label}, κ={self.cardinality})"


class Csg:
    """A cardinality-constrained schema graph."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._nodes: dict[str, Node] = {}
        self._relationships: list[Relationship] = []
        self._outgoing: dict[str, list[Relationship]] = {}

    # ------------------------------------------------------------------
    # Nodes
    # ------------------------------------------------------------------

    def add_node(self, node: Node) -> Node:
        if node.name in self._nodes:
            raise CsgError(f"duplicate node name: {node.name!r}")
        self._nodes[node.name] = node
        self._outgoing[node.name] = []
        return node

    def add_table_node(self, relation: str) -> Node:
        return self.add_node(Node(relation, NodeKind.TABLE, relation=relation))

    def add_attribute_node(self, relation: str, attribute: str) -> Node:
        return self.add_node(
            Node(
                f"{relation}.{attribute}",
                NodeKind.ATTRIBUTE,
                relation=relation,
                attribute=attribute,
            )
        )

    def node(self, name: str) -> Node:
        try:
            return self._nodes[name]
        except KeyError:
            raise CsgError(f"unknown CSG node: {name!r}") from None

    def has_node(self, name: str) -> bool:
        return name in self._nodes

    @property
    def nodes(self) -> tuple[Node, ...]:
        return tuple(self._nodes.values())

    def table_nodes(self) -> tuple[Node, ...]:
        return tuple(node for node in self._nodes.values() if node.is_table)

    def attribute_nodes(self) -> tuple[Node, ...]:
        return tuple(node for node in self._nodes.values() if node.is_attribute)

    # ------------------------------------------------------------------
    # Relationships
    # ------------------------------------------------------------------

    def add_relationship_pair(
        self,
        start: Node,
        end: Node,
        kind: RelationshipKind,
        forward: Cardinality,
        backward: Cardinality,
    ) -> tuple[Relationship, Relationship]:
        """Add ρ_{start→end} and its inverse in one step."""
        for node in (start, end):
            if node.name not in self._nodes:
                raise CsgError(f"node {node.name!r} is not in graph {self.name!r}")
        fwd = Relationship(start, end, kind, forward)
        bwd = Relationship(end, start, kind, backward)
        fwd.bind_inverse(bwd)
        self._relationships.extend((fwd, bwd))
        self._outgoing[start.name].append(fwd)
        self._outgoing[end.name].append(bwd)
        return fwd, bwd

    @property
    def relationships(self) -> tuple[Relationship, ...]:
        return tuple(self._relationships)

    def outgoing(self, node: Node) -> tuple[Relationship, ...]:
        return tuple(self._outgoing[node.name])

    def has_relationship(self, relationship: Relationship) -> bool:
        """Whether ``relationship`` is this graph's own object, not an
        equal-looking one of a graph rebuilt from the same schema."""
        return any(
            rel is relationship
            for rel in self._outgoing.get(relationship.start.name, ())
        )

    def relationship(self, start_name: str, end_name: str) -> Relationship:
        """The (first) direct relationship from ``start_name`` to ``end_name``."""
        for rel in self._outgoing.get(start_name, ()):
            if rel.end.name == end_name:
                return rel
        raise CsgError(
            f"no relationship {start_name!r} -> {end_name!r} in {self.name!r}"
        )

    def atomic_relationships(self) -> Iterator[Relationship]:
        """All non-equality relationships (the ones constraints prescribe)."""
        for rel in self._relationships:
            if not rel.is_equality:
                yield rel

    def __repr__(self) -> str:
        return (
            f"Csg({self.name!r}, {len(self._nodes)} nodes, "
            f"{len(self._relationships)} relationships)"
        )
