"""Relational schemas: attributes, relations, and whole-schema catalogs.

A :class:`Schema` is the static half of a database — relation definitions
plus constraints.  The dynamic half (tuples) lives in
:mod:`repro.relational.instance`; both halves are combined by
:class:`repro.relational.database.Database`.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Iterable, Iterator, Sequence

from .constraints import (
    Constraint,
    ForeignKey,
    FunctionalDependencyConstraint,
    NotNull,
    PrimaryKey,
    Unique,
)
from .datatypes import DataType
from .errors import (
    ConstraintError,
    SchemaError,
    UnknownAttributeError,
    UnknownRelationError,
)


@dataclasses.dataclass(frozen=True)
class Attribute:
    """A typed column of a relation."""

    name: str
    datatype: DataType = DataType.STRING

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("attribute names must be non-empty")


class Relation:
    """An ordered collection of uniquely named attributes."""

    def __init__(self, name: str, attributes: Sequence[Attribute]) -> None:
        if not name:
            raise SchemaError("relation names must be non-empty")
        names = [attribute.name for attribute in attributes]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate attribute names in relation {name!r}")
        self.name = name
        self._attributes: tuple[Attribute, ...] = tuple(attributes)
        self._names: tuple[str, ...] = tuple(names)
        self._by_name = {attribute.name: attribute for attribute in attributes}

    @property
    def attributes(self) -> tuple[Attribute, ...]:
        return self._attributes

    @property
    def attribute_names(self) -> tuple[str, ...]:
        return self._names

    def attribute(self, name: str) -> Attribute:
        """Look up an attribute by name."""
        try:
            return self._by_name[name]
        except KeyError:
            raise UnknownAttributeError(self.name, name) from None

    def has_attribute(self, name: str) -> bool:
        return name in self._by_name

    def index_of(self, name: str) -> int:
        """The positional index of attribute ``name`` within the relation."""
        for index, attribute in enumerate(self._attributes):
            if attribute.name == name:
                return index
        raise UnknownAttributeError(self.name, name)

    def arity(self) -> int:
        return len(self._attributes)

    def __repr__(self) -> str:
        attrs = ", ".join(
            f"{a.name}:{a.datatype.value}" for a in self._attributes
        )
        return f"Relation({self.name!r}, [{attrs}])"


class Schema:
    """A named set of relations plus the constraints that hold on them."""

    def __init__(
        self,
        name: str,
        relations: Sequence[Relation] = (),
        constraints: Iterable[Constraint] = (),
    ) -> None:
        if not name:
            raise SchemaError("schema names must be non-empty")
        self.name = name
        self._relations: dict[str, Relation] = {}
        self._constraints: list[Constraint] = []
        for relation in relations:
            self.add_relation(relation)
        for constraint in constraints:
            self.add_constraint(constraint)

    # ------------------------------------------------------------------
    # Relations
    # ------------------------------------------------------------------

    @property
    def relations(self) -> tuple[Relation, ...]:
        return tuple(self._relations.values())

    @property
    def relation_names(self) -> tuple[str, ...]:
        return tuple(self._relations)

    def add_relation(self, relation: Relation) -> Relation:
        if relation.name in self._relations:
            raise SchemaError(f"duplicate relation name: {relation.name!r}")
        self._relations[relation.name] = relation
        return relation

    def relation(self, name: str) -> Relation:
        try:
            return self._relations[name]
        except KeyError:
            raise UnknownRelationError(name) from None

    def has_relation(self, name: str) -> bool:
        return name in self._relations

    def attribute(self, relation_name: str, attribute_name: str) -> Attribute:
        return self.relation(relation_name).attribute(attribute_name)

    def attribute_count(self) -> int:
        """The total number of attributes over all relations.

        This is the statistic the attribute-counting baseline [14] scales
        its estimate with.
        """
        return sum(relation.arity() for relation in self.relations)

    # ------------------------------------------------------------------
    # Constraints
    # ------------------------------------------------------------------

    @property
    def constraints(self) -> tuple[Constraint, ...]:
        return tuple(self._constraints)

    def add_constraint(self, constraint: Constraint) -> Constraint:
        self._check_constraint_references(constraint)
        self._constraints.append(constraint)
        return constraint

    def _check_constraint_references(self, constraint: Constraint) -> None:
        relation = self.relation(constraint.relation)
        if isinstance(constraint, NotNull):
            relation.attribute(constraint.attribute)
        elif isinstance(constraint, (PrimaryKey, Unique)):
            for attribute in constraint.attributes:
                relation.attribute(attribute)
        elif isinstance(constraint, ForeignKey):
            for attribute in constraint.attributes:
                relation.attribute(attribute)
            referenced = self.relation(constraint.referenced)
            for attribute in constraint.referenced_attributes:
                referenced.attribute(attribute)
        elif isinstance(constraint, FunctionalDependencyConstraint):
            relation.attribute(constraint.determinant)
            relation.attribute(constraint.dependent)
        else:
            raise ConstraintError(
                f"unsupported constraint type: {type(constraint).__name__}"
            )

    def constraints_on(self, relation_name: str) -> tuple[Constraint, ...]:
        """All constraints whose constrained relation is ``relation_name``."""
        return tuple(
            constraint
            for constraint in self._constraints
            if constraint.relation == relation_name
        )

    def primary_key_of(self, relation_name: str) -> PrimaryKey | None:
        for constraint in self._constraints:
            if (
                isinstance(constraint, PrimaryKey)
                and constraint.relation == relation_name
            ):
                return constraint
        return None

    def foreign_keys_of(self, relation_name: str) -> tuple[ForeignKey, ...]:
        return tuple(
            constraint
            for constraint in self._constraints
            if isinstance(constraint, ForeignKey)
            and constraint.relation == relation_name
        )

    def foreign_keys(self) -> tuple[ForeignKey, ...]:
        return tuple(
            constraint
            for constraint in self._constraints
            if isinstance(constraint, ForeignKey)
        )

    def is_not_null(self, relation_name: str, attribute_name: str) -> bool:
        """Whether the attribute is NOT NULL, directly or via a primary key."""
        for constraint in self._constraints:
            if constraint.relation != relation_name:
                continue
            if (
                isinstance(constraint, NotNull)
                and constraint.attribute == attribute_name
            ):
                return True
            if (
                isinstance(constraint, PrimaryKey)
                and attribute_name in constraint.attributes
            ):
                return True
        return False

    def is_unique(self, relation_name: str, attribute_name: str) -> bool:
        """Whether the single attribute is unique (via UNIQUE or a 1-ary PK)."""
        for constraint in self._constraints:
            if constraint.relation != relation_name:
                continue
            if isinstance(constraint, (Unique, PrimaryKey)) and (
                constraint.attributes == (attribute_name,)
            ):
                return True
        return False

    def __iter__(self) -> Iterator[Relation]:
        return iter(self.relations)

    def __repr__(self) -> str:
        return (
            f"Schema({self.name!r}, {len(self._relations)} relations, "
            f"{len(self._constraints)} constraints)"
        )


def relation(name: str, attributes: Sequence[tuple[str, DataType] | str]) -> Relation:
    """Build a :class:`Relation` from ``(name, datatype)`` pairs or bare names.

    Bare attribute names default to STRING, matching how dumped data with
    no schema arrives in practice.
    """
    built: list[Attribute] = []
    for entry in attributes:
        if isinstance(entry, str):
            built.append(Attribute(entry))
        else:
            attr_name, datatype = entry
            built.append(Attribute(attr_name, datatype))
    return Relation(name, built)
