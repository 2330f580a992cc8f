"""Database profiling: per-column statistic bundles and schema reverse
engineering.

The value fit detector consumes :class:`ColumnProfile` bundles; the
structure module benefits from :func:`reverse_engineer`, which turns
discovered dependencies into schema constraints when a source arrives
without declared keys (the paper's *Completeness* requirement).
"""

from __future__ import annotations

import dataclasses

from ..relational.constraints import (
    Constraint,
    NotNull,
    PrimaryKey,
    Unique,
    foreign_key,
)
from ..relational.database import Database
from ..relational.datatypes import DataType
from ..runtime.deadline import checkpoint
from .dependencies import discover_fds, discover_inds, discover_uccs
from .statistics import (
    CharacterHistogram,
    ColumnSummary,
    Constancy,
    FillStatus,
    MeanStatistic,
    NumericHistogram,
    Statistic,
    StringLengthStatistic,
    TextPatternStatistic,
    TopKValues,
    ValueRange,
)

#: Statistic types applicable to textual attributes (paper, Section 5.1:
#: "the target attribute's datatype designat[es] which exact statistic
#: types to use").
TEXTUAL_STATISTICS = (
    TextPatternStatistic,
    CharacterHistogram,
    StringLengthStatistic,
    TopKValues,
)

#: Statistic types applicable to numeric attributes.
NUMERIC_STATISTICS = (
    MeanStatistic,
    NumericHistogram,
    ValueRange,
    TopKValues,
)


def statistic_types_for(datatype: DataType) -> tuple[type[Statistic], ...]:
    """The domain-specific statistic types for an attribute datatype."""
    if datatype.is_numeric:
        return NUMERIC_STATISTICS
    return TEXTUAL_STATISTICS


@dataclasses.dataclass(frozen=True)
class ColumnProfile:
    """All statistics of one attribute, computed against a datatype."""

    relation: str
    attribute: str
    datatype: DataType
    row_count: int
    distinct_count: int
    fill_status: FillStatus
    constancy: Constancy
    statistics: dict[str, Statistic]

    @property
    def is_domain_restricted(self) -> bool:
        return self.constancy.is_domain_restricted

    def statistic(self, name: str) -> Statistic:
        return self.statistics[name]


def profile_column(
    database: Database,
    relation_name: str,
    attribute_name: str,
    datatype: DataType | None = None,
) -> ColumnProfile:
    """Profile one column, memoised through the active runtime.

    ``datatype`` defaults to the attribute's own type; the value fit
    detector instead passes the *target* attribute's datatype so that both
    sides are profiled in the same value space (Section 5.1).

    Delegates to :meth:`repro.runtime.Runtime.profile_column`, so repeated
    profiling of unchanged instances is a content-keyed cache hit; the raw
    computation lives in :func:`compute_column_profile`.
    """
    from ..runtime.engine import get_runtime

    return get_runtime().profile_column(
        database, relation_name, attribute_name, datatype
    )


def compute_column_profile(
    database: Database,
    relation_name: str,
    attribute_name: str,
    datatype: DataType | None = None,
) -> ColumnProfile:
    """The uncached profiling computation behind :func:`profile_column`.

    The column is summarised once (:class:`ColumnSummary`) and every
    statistic reads that summary, so per-value work runs once per
    distinct value.
    """
    instance = database.table(relation_name)
    attribute = database.schema.attribute(relation_name, attribute_name)
    if datatype is None:
        datatype = attribute.datatype
    summary = ColumnSummary(instance.column(attribute_name))
    statistics: dict[str, Statistic] = {}
    for statistic_type in statistic_types_for(datatype):
        checkpoint(
            "profile.statistic",
            relation=relation_name,
            attribute=attribute_name,
        )
        statistic = statistic_type.compute(summary)
        statistics[statistic_type.name] = statistic
    return ColumnProfile(
        relation=relation_name,
        attribute=attribute_name,
        datatype=datatype,
        row_count=len(summary.values),
        distinct_count=len(summary.counts),
        fill_status=FillStatus.compute(summary, datatype),
        constancy=Constancy.compute(summary),
        statistics=statistics,
    )


def profile_database(database: Database) -> dict[tuple[str, str], ColumnProfile]:
    """Profile every column of a database, keyed by (relation, attribute).

    Runs through the active runtime: columns are profiled in a loop and
    both the per-column profiles and the whole bundle are memoised
    against the database content.
    """
    from ..runtime.engine import get_runtime

    return get_runtime().profile_database(database)


def reverse_engineer(database: Database) -> list[Constraint]:
    """Reconstruct plausible constraints from the data alone.

    * single-attribute UCCs with no NULLs → PRIMARY KEY candidates (the
      lexicographically first per relation; the rest become UNIQUE),
    * NULL-free columns → NOT NULL,
    * inclusion dependencies into a key column → FOREIGN KEY candidates.

    The reconstructed constraints are *candidates*: exact on the current
    instance, but, as with all data profiling, not guaranteed to be
    intended semantics [20].
    """
    constraints: list[Constraint] = []
    uccs = discover_uccs(database, max_arity=1)
    keys_by_relation: dict[str, list[str]] = {}
    for ucc in uccs:
        keys_by_relation.setdefault(ucc.relation, []).append(ucc.attributes[0])

    key_columns: set[tuple[str, str]] = set()
    for relation_name, candidates in keys_by_relation.items():
        candidates.sort()
        primary = candidates[0]
        constraints.append(PrimaryKey(relation_name, (primary,)))
        key_columns.add((relation_name, primary))
        for other in candidates[1:]:
            constraints.append(Unique(relation_name, (other,)))
            key_columns.add((relation_name, other))

    for relation in database.schema.relations:
        instance = database.table(relation.name)
        if not len(instance):
            continue
        for attribute_name in relation.attribute_names:
            column = instance.column(attribute_name)
            if all(value is not None for value in column):
                if (relation.name, attribute_name) not in {
                    (c.relation, c.attributes[0])
                    for c in constraints
                    if isinstance(c, PrimaryKey)
                }:
                    constraints.append(NotNull(relation.name, attribute_name))

    constraints.extend(_foreign_key_candidates(database, key_columns))
    constraints.extend(_functional_dependency_candidates(database, key_columns))
    return constraints


def _functional_dependency_candidates(
    database: Database, key_columns: set[tuple[str, str]]
) -> list[Constraint]:
    """Promote discovered FDs to constraints, conservatively.

    Candidates must have a determinant that is genuinely repeated (a
    grouping column, not an almost-key) and must not be implied by a key;
    FDs between two key columns are skipped as redundant.
    """
    from ..relational.constraints import FunctionalDependencyConstraint

    candidates: list[Constraint] = []
    for fd in discover_fds(database):
        if (fd.relation, fd.determinant) in key_columns:
            continue  # implied by the key
        instance = database.table(fd.relation)
        total = len(instance)
        distinct = len(instance.distinct(fd.determinant))
        if total == 0 or distinct == 0:
            continue
        if distinct >= total * 0.8:
            continue  # almost-unique determinants are coincidence-prone
        candidates.append(
            FunctionalDependencyConstraint(
                fd.relation, fd.determinant, fd.dependent
            )
        )
    return candidates


def _foreign_key_candidates(
    database: Database, key_columns: set[tuple[str, str]]
) -> list[Constraint]:
    """Promote inclusion dependencies to foreign keys, carefully.

    Raw INDs over-fire badly on integer id columns (every ``1..n`` surrogate
    key is included in every other), so candidates are scored by the name
    affinity between the referencing attribute and the referenced relation /
    attribute, with a bonus for referencing a primary key, and only the best
    candidate per referencing attribute survives.
    """
    from ..matching.name_matcher import name_similarity

    best: dict[tuple[str, str], tuple[float, Constraint]] = {}
    for ind in discover_inds(database, min_values=1):
        if (ind.referenced, ind.referenced_attribute) not in key_columns:
            continue
        if ind.relation == ind.referenced:
            continue
        affinity = max(
            name_similarity(ind.attribute, ind.referenced),
            name_similarity(ind.attribute, ind.referenced_attribute),
        )
        score = 0.7 * affinity + 0.3  # the referenced side is always a key
        if score < 0.5:
            continue
        candidate = foreign_key(
            ind.relation, ind.attribute, ind.referenced, ind.referenced_attribute
        )
        key = (ind.relation, ind.attribute)
        if key not in best or score > best[key][0]:
            best[key] = (score, candidate)
    return [candidate for _, candidate in best.values()]
