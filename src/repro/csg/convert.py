"""Relational → CSG conversion (Section 4.1).

"To convert a relational schema, for each of its relations, a table node
is created [...]; for each attribute, an attribute node is created and
connected to its table node via a relationship."  Constraints translate to
prescribed cardinalities:

===========================  =======================================
relational constraint        prescribed cardinality
===========================  =======================================
NOT NULL on R.a              κ(ρ_R→a) = 1      (else 0..1)
UNIQUE on R.a                κ(ρ_a→R) = 1      (else 1..*)
FOREIGN KEY R.a → S.b        equality relationship a = b with
                             κ(ρ_a→b) = 1, κ(ρ_b→a) = 0..1
===========================  =======================================

The two relational conformity rules come for free: "each tuple can have at
most one value per attribute" (κ(ρ_R→a) ⊆ 0..1) and "each attribute value
must be contained in a tuple" (κ(ρ_a→R) ⊇ 1..*, tightened to 1 by UNIQUE).

Composite foreign keys are translated attribute-pair-wise: if the composite
combination exists in the referenced relation then each component value
exists in its referenced column, so the per-pair κ(ρ_a→b) = 1 constraints
are sound (the n-ary version corresponds to the paper's collateral
operator).
"""

from __future__ import annotations

from ..relational.constraints import ForeignKey
from ..relational.database import Database
from ..relational.schema import Schema
from .cardinality import AT_LEAST_ONE, AT_MOST_ONE, EXACTLY_ONE
from .graph import Csg, Node, RelationshipKind
from .instance import CsgInstance

TupleId = tuple[str, int]


def schema_to_csg(schema: Schema) -> Csg:
    """Convert a relational schema (without data) into a CSG."""
    graph = Csg(schema.name)
    for relation in schema.relations:
        table_node = graph.add_table_node(relation.name)
        for attribute in relation.attributes:
            attribute_node = graph.add_attribute_node(
                relation.name, attribute.name
            )
            forward = (
                EXACTLY_ONE
                if schema.is_not_null(relation.name, attribute.name)
                else AT_MOST_ONE
            )
            backward = (
                EXACTLY_ONE
                if schema.is_unique(relation.name, attribute.name)
                else AT_LEAST_ONE
            )
            graph.add_relationship_pair(
                table_node,
                attribute_node,
                RelationshipKind.ATTRIBUTE,
                forward,
                backward,
            )
    for constraint in schema.foreign_keys():
        _add_foreign_key(graph, constraint)
    return graph


def _add_foreign_key(graph: Csg, constraint: ForeignKey) -> None:
    for attribute, referenced_attribute in zip(
        constraint.attributes, constraint.referenced_attributes
    ):
        referencing_node = graph.node(f"{constraint.relation}.{attribute}")
        referenced_node = graph.node(
            f"{constraint.referenced}.{referenced_attribute}"
        )
        graph.add_relationship_pair(
            referencing_node,
            referenced_node,
            RelationshipKind.EQUALITY,
            EXACTLY_ONE,
            AT_MOST_ONE,
        )


def tuple_id(relation_name: str, index: int) -> TupleId:
    """The abstract element identifying tuple ``index`` of a relation."""
    return (relation_name, index)


def database_to_csg(database: Database) -> tuple[Csg, CsgInstance]:
    """Convert a database into a CSG plus the CSG instance of its data.

    The instance records each relation's row count and a copy of each
    attribute's column; nothing per tuple or per value is built here.
    Its table-node elements are the tuple ids ``(relation, i)``, its
    attribute-node elements the distinct non-null values of the
    attribute, and its links (tuple id to value, and the common values
    of FK attribute pairs) are derived from the columns when a path is
    counted (:mod:`repro.csg.instance`).
    """
    graph = schema_to_csg(database.schema)
    row_counts: dict[str, int] = {}
    columns: dict[str, list[object]] = {}
    for relation in database.schema.relations:
        table = database.table(relation.name)
        row_counts[relation.name] = len(table)
        for attribute, column in zip(relation.attributes, table.columns()):
            columns[f"{relation.name}.{attribute.name}"] = column
    return graph, CsgInstance(graph, row_counts, columns)


def attribute_node_of(graph: Csg, relation: str, attribute: str) -> Node:
    """Convenience lookup of the attribute node ``relation.attribute``."""
    return graph.node(f"{relation}.{attribute}")
