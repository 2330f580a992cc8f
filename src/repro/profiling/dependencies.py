"""Dependency discovery: unique column combinations, inclusion and
functional dependencies.

Section 3.1 of the paper requires *Completeness*: "constraints are [often]
not enforced at the schema level [...] techniques for schema reverse
engineering and data profiling can reconstruct missing schema descriptions
and constraints from the data."  This module implements the discovery
algorithms that feed :func:`repro.profiling.profiler.reverse_engineer`.

All discovery here is exact (it verifies against the full instance);
lattice search is pruned to unary and binary combinations, which is what
the EFES detectors consume.
"""

from __future__ import annotations

import dataclasses
import itertools
from collections import defaultdict

from ..relational.database import Database
from ..relational.instance import RelationInstance
from ..runtime.deadline import checkpoint


@dataclasses.dataclass(frozen=True)
class UniqueColumnCombination:
    """Attributes whose (null-free) projection is duplicate-free."""

    relation: str
    attributes: tuple[str, ...]


@dataclasses.dataclass(frozen=True)
class InclusionDependency:
    """relation.attribute ⊆ referenced.referenced_attribute (non-null values)."""

    relation: str
    attribute: str
    referenced: str
    referenced_attribute: str


@dataclasses.dataclass(frozen=True)
class FunctionalDependency:
    """determinant → dependent within one relation (unary determinant)."""

    relation: str
    determinant: str
    dependent: str


def _projection(instance: RelationInstance, attributes: tuple[str, ...]):
    indices = [instance.relation.index_of(name) for name in attributes]
    for row in instance:
        yield tuple(row[index] for index in indices)


def _is_unique(instance: RelationInstance, attributes: tuple[str, ...]) -> bool:
    seen: set[tuple] = set()
    for key in _projection(instance, attributes):
        if any(part is None for part in key):
            return False  # keys must be total to be usable as identifiers
        if key in seen:
            return False
        seen.add(key)
    return True


def discover_uccs(
    database: Database, max_arity: int = 2
) -> list[UniqueColumnCombination]:
    """Minimal unique column combinations up to ``max_arity`` per relation.

    Memoised through the active runtime; the raw computation is
    :func:`compute_uccs`.
    """
    from ..runtime.engine import get_runtime

    return get_runtime().discover_uccs(database, max_arity)


def compute_relation_uccs(
    database: Database, relation_name: str, max_arity: int = 2
) -> list[UniqueColumnCombination]:
    """UCC discovery for a single relation.

    Empty relations yield no UCCs: uniqueness of nothing is vacuous and
    would flood downstream consumers with spurious keys.
    """
    instance = database.table(relation_name)
    results: list[UniqueColumnCombination] = []
    if not len(instance):
        return results
    names = database.schema.relation(relation_name).attribute_names
    unary_uccs: set[str] = set()
    for name in names:
        checkpoint("ucc", relation=relation_name)
        if _is_unique(instance, (name,)):
            unary_uccs.add(name)
            results.append(UniqueColumnCombination(relation_name, (name,)))
    if max_arity < 2:
        return results
    for left, right in itertools.combinations(names, 2):
        if left in unary_uccs or right in unary_uccs:
            continue  # not minimal
        checkpoint("ucc", relation=relation_name)
        if _is_unique(instance, (left, right)):
            results.append(
                UniqueColumnCombination(relation_name, (left, right))
            )
    return results


def compute_uccs(
    database: Database, max_arity: int = 2
) -> list[UniqueColumnCombination]:
    """Uncached UCC discovery, relation by relation."""
    return [
        ucc
        for relation in database.schema.relations
        for ucc in compute_relation_uccs(database, relation.name, max_arity)
    ]


def discover_inds(
    database: Database, min_values: int = 1
) -> list[InclusionDependency]:
    """All unary inclusion dependencies between distinct attribute columns.

    Memoised through the active runtime; the raw computation is
    :func:`compute_inds`.
    """
    from ..runtime.engine import get_runtime

    return get_runtime().discover_inds(database, min_values)


def compute_inds(
    database: Database, min_values: int = 1
) -> list[InclusionDependency]:
    """Uncached IND discovery.

    ``min_values`` guards against vacuous INDs from (near-)empty columns.
    Trivial reflexive INDs are excluded.  The distinct-value sets are
    collected relation by relation (the expensive scan), then checked
    pairwise in that order to keep result order canonical.
    """
    value_sets: dict[tuple[str, str], set[object]] = {}
    for relation in database.schema.relations:
        checkpoint("ind.scan", relation=relation.name)
        instance = database.table(relation.name)
        for name in relation.attribute_names:
            value_sets[(relation.name, name)] = instance.distinct(name)
    results: list[InclusionDependency] = []
    for (lhs_rel, lhs_attr), lhs_values in value_sets.items():
        if len(lhs_values) < min_values:
            continue
        checkpoint("ind", relation=lhs_rel)
        for (rhs_rel, rhs_attr), rhs_values in value_sets.items():
            if (lhs_rel, lhs_attr) == (rhs_rel, rhs_attr):
                continue
            if lhs_values <= rhs_values:
                results.append(
                    InclusionDependency(lhs_rel, lhs_attr, rhs_rel, rhs_attr)
                )
    return results


def discover_fds(database: Database) -> list[FunctionalDependency]:
    """All unary-determinant functional dependencies that hold exactly.

    Memoised through the active runtime; the raw computation is
    :func:`compute_fds`.
    """
    from ..runtime.engine import get_runtime

    return get_runtime().discover_fds(database)


def compute_relation_fds(
    database: Database, relation_name: str
) -> list[FunctionalDependency]:
    """FD discovery for a single relation.

    NULL determinant values are skipped (SQL-style); trivial X→X FDs are
    excluded, as are FDs whose determinant is a UCC (those are implied).
    """
    instance = database.table(relation_name)
    results: list[FunctionalDependency] = []
    if not len(instance):
        return results
    names = database.schema.relation(relation_name).attribute_names
    unique_attrs = {name for name in names if _is_unique(instance, (name,))}
    for determinant in names:
        if determinant in unique_attrs:
            continue
        det_index = instance.relation.index_of(determinant)
        for dependent in names:
            if dependent == determinant:
                continue
            checkpoint("fd", relation=relation_name)
            dep_index = instance.relation.index_of(dependent)
            mapping: dict[object, object] = {}
            holds = True
            for row in instance:
                det_value = row[det_index]
                if det_value is None:
                    continue
                dep_value = row[dep_index]
                if det_value in mapping:
                    if mapping[det_value] != dep_value:
                        holds = False
                        break
                else:
                    mapping[det_value] = dep_value
            if holds and mapping:
                results.append(
                    FunctionalDependency(relation_name, determinant, dependent)
                )
    return results


def compute_fds(database: Database) -> list[FunctionalDependency]:
    """Uncached FD discovery, relation by relation."""
    return [
        fd
        for relation in database.schema.relations
        for fd in compute_relation_fds(database, relation.name)
    ]


def ind_graph(inds: list[InclusionDependency]) -> dict[tuple[str, str], list[tuple[str, str]]]:
    """Adjacency view of inclusion dependencies, for FK candidate ranking."""
    graph: dict[tuple[str, str], list[tuple[str, str]]] = defaultdict(list)
    for ind in inds:
        graph[(ind.relation, ind.attribute)].append(
            (ind.referenced, ind.referenced_attribute)
        )
    return dict(graph)
