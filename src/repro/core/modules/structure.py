"""The structural-conflicts estimation module (Section 4).

The *structure conflict detector* converts source and target into CSGs,
matches every atomic target relationship to the most concise composite
source relationship (Section 4.1), compares prescribed vs inferred
cardinalities, and counts actually conflicting source elements (Table 3).
Its result is cached per source content in the runtime's
``ProfileCache``, so a re-quote of assessed content converts nothing.

The *structure repair planner* (Section 4.2) chooses cleaning tasks from
Table 4 and simulates them on a virtual CSG instance (Fig. 5): every
relationship carries an *actual* cardinality describing the conceptually
integrated source data; applying a task narrows the violated cardinality
but may widen others (side effects), which spawns follow-up tasks; the
loop runs until the virtual instance is valid, ordering causing tasks
before fixing tasks and detecting infinite cleaning loops.
"""

from __future__ import annotations

import dataclasses
import itertools

from ...csg.cardinality import Cardinality, Interval
from ...csg.convert import database_to_csg, schema_to_csg
from ...csg.graph import Csg, Relationship, RelationshipKind
from ...csg.instance import CsgInstance
from ...csg.paths import (
    DEFAULT_MAX_PATH_LENGTH,
    infer_path_cardinality,
    match_endpoints,
)
from ...matching.correspondence import CorrespondenceSet
from ...relational.database import Database
from ...runtime import ContentKey, get_runtime
from ...scenarios.scenario import IntegrationScenario
from ..framework import EstimationModule
from ..quality import ResultQuality
from ..reports import StructureComplexityReport, StructureViolation
from ..tasks import (
    STRUCTURE_TASK_CATALOGUE,
    StructuralConflict,
    Task,
    TaskType,
)


class InfiniteCleaningLoopError(RuntimeError):
    """The repair simulation does not converge (contradicting repairs).

    "In most cases, these cycles are a consequence of contradicting repair
    tasks.  EFES proposes only consistent repair strategies." — raising is
    the consistent reaction; the message names the oscillating tasks.
    """


def _node_mapping(
    correspondences: CorrespondenceSet,
) -> dict[str, list[str]]:
    """Target CSG node name → candidate source CSG node names."""
    mapping: dict[str, list[str]] = {}
    for c in correspondences.attribute_correspondences():
        mapping.setdefault(c.target, []).append(c.source)
    for target_relation in correspondences.target_relations():
        sources = correspondences.identity_sources_of_relation(target_relation)
        if sources:
            mapping[target_relation] = list(sources)
    return mapping


@dataclasses.dataclass
class MatchedTargetRelationship:
    """A target relationship together with its matched source counterpart."""

    relationship: Relationship
    path: tuple[Relationship, ...]
    inferred: Cardinality


class StructureConflictDetector:
    """Phase-1 half of the structure module."""

    def __init__(
        self,
        max_path_length: int = DEFAULT_MAX_PATH_LENGTH,
        use_conciseness: bool = True,
    ) -> None:
        self.max_path_length = max_path_length
        self.use_conciseness = use_conciseness

    def detect(
        self,
        source: Database,
        target: Database,
        correspondences: CorrespondenceSet,
    ) -> list[StructureViolation]:
        """The violations of ``source`` against ``target``, cached per source
        content on the active runtime.

        They are a pure function of both contents, the correspondences and
        this detector's options, which make up the cache key.  Both
        contents enter it as content keys (:class:`~repro.runtime.ContentKey`),
        so a cold lookup fingerprints neither database.  Only the source's
        name is applied after the lookup, so a content-identical source
        under another name reports its own.
        """
        violations = get_runtime().structure_violations(
            source,
            (
                "structure",
                ContentKey(target),
                tuple(correspondences),
                self.max_path_length,
                self.use_conciseness,
            ),
            lambda: tuple(self._detect(source, target, correspondences)),
        )
        return [
            dataclasses.replace(violation, source_database=source.name)
            for violation in violations
        ]

    def _detect(
        self,
        source: Database,
        target: Database,
        correspondences: CorrespondenceSet,
    ) -> list[StructureViolation]:
        source_graph, source_instance = database_to_csg(source)
        target_graph = schema_to_csg(target.schema)
        mapping = _node_mapping(correspondences)
        violations: list[StructureViolation] = []
        for relationship in self._target_relationships(target_graph):
            start_names = mapping.get(relationship.start.name)
            end_names = mapping.get(relationship.end.name)
            if not start_names or not end_names:
                continue  # unmapped endpoints are out of scope (Section 4.1)
            matched = match_endpoints(
                source_graph,
                start_names,
                end_names,
                max_length=self.max_path_length,
                use_conciseness=self.use_conciseness,
            )
            if matched is None:
                continue
            if matched.cardinality.is_subset(relationship.cardinality):
                continue  # source is at least as concise: no conflict
            violations.extend(
                self._count(
                    source.name, relationship, matched.path,
                    matched.cardinality, source_instance,
                )
            )
        violations.extend(
            self._detect_composite_uniques(
                source, target, correspondences, source_graph,
                source_instance, mapping,
            )
        )
        violations.extend(
            self._detect_functional_dependencies(
                source, target, source_graph, source_instance, mapping
            )
        )
        return violations

    def _detect_functional_dependencies(
        self,
        source: Database,
        target: Database,
        source_graph: Csg,
        source_instance: CsgInstance,
        mapping: dict[str, list[str]],
    ) -> list[StructureViolation]:
        """FDs as complex-relationship cardinalities (§4.1 extension).

        An FD ``det → dep`` prescribes κ(ρ_det→dep) ⊆ 0..1 on the composed
        relationship from determinant values through tuples to dependent
        values.  The detector matches that relationship into the source
        (determinant node → dependent node) and counts determinant values
        with several dependent values.
        """
        from ...relational.constraints import FunctionalDependencyConstraint

        violations: list[StructureViolation] = []
        fds = sorted(
            (
                constraint
                for constraint in target.schema.constraints
                if isinstance(constraint, FunctionalDependencyConstraint)
            ),
            key=lambda c: (c.relation, c.determinant, c.dependent),
        )
        prescribed = Cardinality.of(0, 1)
        for fd in fds:
            det_names = mapping.get(f"{fd.relation}.{fd.determinant}")
            dep_names = mapping.get(f"{fd.relation}.{fd.dependent}")
            if not det_names or not dep_names:
                continue
            matched = match_endpoints(
                source_graph,
                det_names,
                dep_names,
                max_length=self.max_path_length,
                use_conciseness=self.use_conciseness,
            )
            if matched is None:
                continue
            if matched.cardinality.is_subset(prescribed):
                continue
            count = source_instance.count_violations(matched.path, prescribed)
            if not count:
                continue
            label = f"{fd.determinant}->{fd.dependent}"
            violations.append(
                StructureViolation(
                    source_database=source.name,
                    target_relationship=(
                        f"{fd.relation}.{fd.determinant}->"
                        f"{fd.relation}.{fd.dependent}"
                    ),
                    conflict=StructuralConflict.FD_VIOLATED,
                    prescribed=str(prescribed),
                    inferred=str(matched.cardinality),
                    violation_count=count,
                    scope=len(source_instance.image_counts(matched.path)),
                    target_relation=fd.relation,
                    target_attribute=label,
                )
            )
        return violations

    def _detect_composite_uniques(
        self,
        source: Database,
        target: Database,
        correspondences: CorrespondenceSet,
        source_graph: Csg,
        source_instance: CsgInstance,
        mapping: dict[str, list[str]],
    ) -> list[StructureViolation]:
        """N-ary uniqueness via the join operator (Section 4.1, Lemma 3).

        A composite UNIQUE over (a, b) prescribes κ(ρ_a→T ⋈ ρ_b→T) ⊆ 1 on
        the value-combination side: each (a, b) combination may enclose at
        most one tuple.  The inferred source-side cardinality is the join
        of the matched per-attribute relationships; the violation count is
        the number of combinations shared by several source entities.
        """
        from ...relational.constraints import PrimaryKey, Unique

        violations: list[StructureViolation] = []
        composites = [
            constraint
            for constraint in target.schema.constraints
            if isinstance(constraint, (Unique, PrimaryKey))
            and len(constraint.attributes) >= 2
        ]
        for constraint in sorted(
            composites, key=lambda c: (c.relation, c.attributes)
        ):
            table_sources = mapping.get(constraint.relation)
            if not table_sources:
                continue
            matched_paths = []
            for attribute in constraint.attributes:
                end_names = mapping.get(f"{constraint.relation}.{attribute}")
                if not end_names:
                    matched_paths = []
                    break
                matched = match_endpoints(
                    source_graph,
                    table_sources,
                    end_names,
                    max_length=self.max_path_length,
                    use_conciseness=self.use_conciseness,
                )
                if matched is None:
                    matched_paths = []
                    break
                matched_paths.append(matched)
            if not matched_paths:
                continue  # some key component is unmapped: out of scope

            # Inferred cardinality of the joined backward relationship via
            # Lemma 3 (join of the per-attribute inverse cardinalities).
            inverse_cardinalities = [
                infer_path_cardinality(
                    tuple(rel.inverse for rel in reversed(matched.path))
                )
                for matched in matched_paths
            ]
            inferred = inverse_cardinalities[0]
            for cardinality in inverse_cardinalities[1:]:
                inferred = inferred.join(cardinality)
            prescribed = Cardinality.of(1)
            if inferred.is_subset(prescribed):
                continue  # e.g. all key components unique on the source

            # Count combinations shared by multiple source entities.
            image_sets = [
                source_instance.image_sets(matched.path)
                for matched in matched_paths
            ]
            seen: dict[tuple, int] = {}
            elements = image_sets[0].keys()
            for element in elements:
                images = [images_of.get(element, set()) for images_of in image_sets]
                if not all(images):
                    continue  # incomplete keys are exempt, like SQL
                # Combinations of distinct images are distinct: each
                # element counts once per combination.
                for combo in itertools.product(*images):
                    seen[combo] = seen.get(combo, 0) + 1
            duplicate_extras = sum(
                count - 1 for count in seen.values() if count > 1
            )
            if not duplicate_extras:
                continue
            attribute_label = "(" + ", ".join(constraint.attributes) + ")"
            violations.append(
                StructureViolation(
                    source_database=source.name,
                    target_relationship=(
                        f"{constraint.relation}.{attribute_label}"
                        f"->{constraint.relation}"
                    ),
                    conflict=StructuralConflict.UNIQUE_VIOLATED,
                    prescribed=str(prescribed),
                    inferred=str(inferred),
                    violation_count=duplicate_extras,
                    scope=len(seen),
                    target_relation=constraint.relation,
                    target_attribute=attribute_label,
                )
            )
        return violations

    def _target_relationships(self, target_graph: Csg):
        """Atomic target relationships in deterministic report order.

        Both directions of attribute relationships plus the forward
        direction of FK equality relationships (the referencing side is
        the constrained one).
        """
        ordered = []
        for relationship in target_graph.relationships:
            if relationship.kind is RelationshipKind.ATTRIBUTE:
                ordered.append(relationship)
            elif relationship.cardinality == Cardinality.of(1):
                # equality: only the referencing side prescribes 1
                ordered.append(relationship)
        ordered.sort(key=lambda rel: rel.label)
        return ordered

    def _count(
        self,
        source_name: str,
        relationship: Relationship,
        path: tuple[Relationship, ...],
        inferred: Cardinality,
        instance: CsgInstance,
    ) -> list[StructureViolation]:
        """Split violating elements into too-few vs too-many and classify."""
        prescribed = relationship.cardinality
        counts = instance.image_counts(path)
        minimum = prescribed.min if prescribed.min is not None else 0
        below = sum(1 for count in counts.values() if count < minimum)
        above = sum(
            1
            for count in counts.values()
            if count >= minimum and not prescribed.contains(count)
        )
        scope = len(counts)
        label = f"{relationship.start.name}->{relationship.end.name}"
        results: list[StructureViolation] = []

        if relationship.kind is RelationshipKind.EQUALITY:
            # The referencing attribute owns an FK violation.
            owner_relation = relationship.start.relation or ""
            owner_attribute = relationship.start.attribute or ""
        elif relationship.start.is_table:
            owner_relation = relationship.start.relation or ""
            owner_attribute = relationship.end.attribute or ""
        else:
            owner_relation = relationship.end.relation or ""
            owner_attribute = relationship.start.attribute or ""

        def emit(conflict: StructuralConflict, count: int) -> None:
            results.append(
                StructureViolation(
                    source_database=source_name,
                    target_relationship=label,
                    conflict=conflict,
                    prescribed=str(prescribed),
                    inferred=str(inferred),
                    violation_count=count,
                    scope=scope,
                    target_relation=owner_relation,
                    target_attribute=owner_attribute,
                )
            )

        if relationship.kind is RelationshipKind.EQUALITY:
            if below or above:
                emit(StructuralConflict.FK_VIOLATED, below + above)
            return results
        if relationship.start.is_table:  # forward: tuple → value
            if below:
                emit(StructuralConflict.NOT_NULL_VIOLATED, below)
            if above:
                emit(StructuralConflict.MULTIPLE_ATTRIBUTE_VALUES, above)
        else:  # backward: value → tuple
            if below:
                emit(StructuralConflict.VALUE_WITHOUT_ENCLOSING_TUPLE, below)
            if above:
                emit(StructuralConflict.UNIQUE_VIOLATED, above)
        return results


# ----------------------------------------------------------------------
# Virtual CSG simulation (Fig. 5)
# ----------------------------------------------------------------------


@dataclasses.dataclass
class VirtualRelationship:
    """One target relationship in the virtual CSG instance.

    ``actual`` describes the conceptually integrated data; ``below`` /
    ``above`` count the elements with too few / too many links.  The
    instance is valid when every relationship's actual ⊆ prescribed
    (equivalently: no below/above counts remain).
    """

    relation: str
    attribute: str
    direction: str  # "forward" (tuple→value), "backward", "equality"
    prescribed: Cardinality
    actual: Cardinality
    below: int = 0
    above: int = 0
    scope: int = 0

    @property
    def key(self) -> tuple[str, str, str]:
        return (self.relation, self.attribute, self.direction)

    @property
    def is_violated(self) -> bool:
        return self.below > 0 or self.above > 0

    def widen_low(self, count: int) -> None:
        """New elements with too few links appeared (side effect)."""
        self.below += count
        if not self.actual.is_empty:
            self.actual = Cardinality(
                [Interval(0, self.actual.max if self.actual.is_bounded else None)]
            )

    def narrow_to_prescribed(self) -> None:
        self.below = 0
        self.above = 0
        intersected = self.actual.intersection(self.prescribed)
        self.actual = intersected if not intersected.is_empty else self.prescribed


_CONFLICT_OF = {
    ("forward", "below"): StructuralConflict.NOT_NULL_VIOLATED,
    ("forward", "above"): StructuralConflict.MULTIPLE_ATTRIBUTE_VALUES,
    ("backward", "below"): StructuralConflict.VALUE_WITHOUT_ENCLOSING_TUPLE,
    ("backward", "above"): StructuralConflict.UNIQUE_VIOLATED,
    ("equality", "below"): StructuralConflict.FK_VIOLATED,
    ("equality", "above"): StructuralConflict.FK_VIOLATED,
    ("fd", "below"): StructuralConflict.FD_VIOLATED,
    ("fd", "above"): StructuralConflict.FD_VIOLATED,
}


class StructureRepairPlanner:
    """Phase-2 half of the structure module: plan ordered cleaning tasks."""

    def __init__(self, max_steps_factor: int = 10) -> None:
        self.max_steps_factor = max_steps_factor

    # -- state construction ---------------------------------------------

    def _build_states(
        self,
        scenario: IntegrationScenario,
        correspondences: CorrespondenceSet,
        violations: list[StructureViolation],
    ) -> dict[tuple[str, str, str], VirtualRelationship]:
        target_schema = scenario.target.schema
        states: dict[tuple[str, str, str], VirtualRelationship] = {}
        for target_table in correspondences.target_relations():
            if not target_schema.has_relation(target_table):
                continue
            for attribute in correspondences.mapped_target_attributes(
                target_table
            ):
                forward = (
                    Cardinality.of(1)
                    if target_schema.is_not_null(target_table, attribute)
                    else Cardinality.of(0, 1)
                )
                backward = (
                    Cardinality.of(1)
                    if target_schema.is_unique(target_table, attribute)
                    else Cardinality.of(1, None)
                )
                for direction, prescribed in (
                    ("forward", forward),
                    ("backward", backward),
                ):
                    state = VirtualRelationship(
                        relation=target_table,
                        attribute=attribute,
                        direction=direction,
                        prescribed=prescribed,
                        actual=prescribed,
                    )
                    states[state.key] = state
            for fk in target_schema.foreign_keys_of(target_table):
                for attribute in fk.attributes:
                    state = VirtualRelationship(
                        relation=target_table,
                        attribute=attribute,
                        direction="equality",
                        prescribed=Cardinality.of(1),
                        actual=Cardinality.of(1),
                    )
                    states[state.key] = state

        # Functional dependencies: one "fd" state per target FD whose
        # determinant and dependent are both mapped.
        from ...relational.constraints import FunctionalDependencyConstraint

        for constraint in target_schema.constraints:
            if not isinstance(constraint, FunctionalDependencyConstraint):
                continue
            mapped = correspondences.mapped_target_attributes(
                constraint.relation
            )
            if (
                constraint.determinant not in mapped
                or constraint.dependent not in mapped
            ):
                continue
            state = VirtualRelationship(
                relation=constraint.relation,
                attribute=f"{constraint.determinant}->{constraint.dependent}",
                direction="fd",
                prescribed=Cardinality.of(0, 1),
                actual=Cardinality.of(0, 1),
            )
            states[state.key] = state

        # Composite key constraints (n-ary uniqueness, Lemma 3): one
        # backward state per composite whose components are all mapped.
        from ...relational.constraints import PrimaryKey, Unique

        for constraint in target_schema.constraints:
            if not isinstance(constraint, (Unique, PrimaryKey)):
                continue
            if len(constraint.attributes) < 2:
                continue
            mapped = correspondences.mapped_target_attributes(
                constraint.relation
            )
            if not set(constraint.attributes) <= set(mapped):
                continue
            label = "(" + ", ".join(constraint.attributes) + ")"
            state = VirtualRelationship(
                relation=constraint.relation,
                attribute=label,
                direction="backward",
                prescribed=Cardinality.of(1),
                actual=Cardinality.of(1),
            )
            states[state.key] = state

        # Seed below/above and actual cardinalities from detector findings.
        for violation in violations:
            direction = _direction_of(violation.conflict)
            key = (violation.target_relation, violation.target_attribute, direction)
            state = states.get(key)
            if state is None:
                continue
            state.scope = max(state.scope, violation.scope)
            state.actual = Cardinality.parse(violation.inferred)
            if violation.conflict in (
                StructuralConflict.NOT_NULL_VIOLATED,
                StructuralConflict.VALUE_WITHOUT_ENCLOSING_TUPLE,
                StructuralConflict.FK_VIOLATED,
            ):
                state.below += violation.violation_count
            else:
                state.above += violation.violation_count
        return states

    # -- main loop --------------------------------------------------------

    def plan(
        self,
        scenario: IntegrationScenario,
        correspondences: CorrespondenceSet,
        violations: list[StructureViolation],
        quality: ResultQuality,
    ) -> list[Task]:
        states = self._build_states(scenario, correspondences, violations)
        tasks: list[Task] = []
        applied: set[tuple[tuple[str, str, str], str, TaskType]] = set()
        budget = self.max_steps_factor * (len(violations) + len(states)) + 20
        steps = 0
        while True:
            violated = sorted(
                (state for state in states.values() if state.is_violated),
                key=lambda state: state.key,
            )
            if not violated:
                break
            steps += 1
            if steps > budget:
                raise InfiniteCleaningLoopError(
                    "repair simulation exceeded its step budget; the last "
                    f"pending violations were: "
                    f"{[state.key for state in violated[:5]]}"
                )
            state = violated[0]
            side = "below" if state.below > 0 else "above"
            conflict = _CONFLICT_OF[(state.direction, side)]
            task_type = STRUCTURE_TASK_CATALOGUE[conflict][quality]
            signature = (state.key, side, task_type)
            if signature in applied:
                raise InfiniteCleaningLoopError(
                    f"contradicting repair tasks: {task_type} on "
                    f"{state.relation}.{state.attribute} ({side}) is needed "
                    "again after having been applied — the cleaning tasks "
                    "form a cycle"
                )
            applied.add(signature)
            tasks.append(self._make_task(state, side, task_type, quality))
            self._apply(states, state, side, task_type)
        return tasks

    # -- task construction ------------------------------------------------

    def _make_task(
        self,
        state: VirtualRelationship,
        side: str,
        task_type: TaskType,
        quality: ResultQuality,
    ) -> Task:
        count = state.below if side == "below" else state.above
        subject = (
            state.relation
            if task_type is TaskType.ADD_TUPLES
            else f"{state.relation}.{state.attribute}"
        )
        return Task(
            type=task_type,
            quality=quality,
            subject=subject,
            parameters={
                "repetitions": count,
                "values": count,
                "scope": state.scope,
            },
            module="structure",
        )

    # -- effect simulation --------------------------------------------------

    def _apply(
        self,
        states: dict[tuple[str, str, str], VirtualRelationship],
        state: VirtualRelationship,
        side: str,
        task_type: TaskType,
    ) -> None:
        """Mutate the virtual CSG instance per the applied task's effects."""
        count = state.below if side == "below" else state.above
        state.narrow_to_prescribed()

        def sibling_forwards(exclude_attribute: str):
            for other in states.values():
                if (
                    other.relation == state.relation
                    and other.direction == "forward"
                    and other.attribute != exclude_attribute
                ):
                    yield other

        if task_type in (TaskType.ADD_TUPLES, TaskType.CREATE_ENCLOSING_TUPLES):
            # New tuples only carry the detached value: every *other*
            # mandatory attribute of the relation starts out empty (Fig. 5b).
            for other in sibling_forwards(state.attribute):
                if other.prescribed.min and other.prescribed.min > 0:
                    other.widen_low(count)
        elif task_type is TaskType.SET_VALUES_TO_NULL:
            # Nulling duplicated/conflicting values removes them from
            # their tuples; for an FD repair the nulls land in the
            # dependent attribute.
            attribute = state.attribute
            if state.direction == "fd" and "->" in attribute:
                attribute = attribute.split("->", 1)[1]
            forward = states.get((state.relation, attribute, "forward"))
            if forward is not None and forward.prescribed.min:
                forward.widen_low(count)
        elif task_type is TaskType.AGGREGATE_TUPLES:
            # Merged tuples may carry conflicting values in other attributes.
            for other in sibling_forwards(state.attribute):
                if other.prescribed.is_bounded and other.prescribed.max == 1:
                    other.above += count
                    if not other.actual.is_empty:
                        other.actual = Cardinality(
                            [Interval(other.actual.min or 0, None)]
                        )
        elif task_type is TaskType.DELETE_DANGLING_VALUES:
            # Deleting the dangling FK values leaves NULLs behind.
            forward = states.get((state.relation, state.attribute, "forward"))
            if forward is not None and forward.prescribed.min:
                forward.widen_low(count)
        elif task_type is TaskType.ADD_REFERENCED_VALUES:
            # The referenced relation gains skeleton tuples; its other
            # mandatory attributes are initially empty.  (The referenced
            # relation is unknown here without the FK edge; modelled as a
            # no-op side effect beyond fixing the equality relationship.)
            pass
        # REJECT_TUPLES, ADD_MISSING_VALUES, KEEP_ANY_VALUE, MERGE_VALUES,
        # DROP_DETACHED_VALUES, DELETE_DANGLING_TUPLES and
        # UNLINK_ALL_BUT_ONE_TUPLE repair their relationship without
        # breaking others.


def _direction_of(conflict: StructuralConflict) -> str:
    if conflict in (
        StructuralConflict.NOT_NULL_VIOLATED,
        StructuralConflict.MULTIPLE_ATTRIBUTE_VALUES,
    ):
        return "forward"
    if conflict is StructuralConflict.FK_VIOLATED:
        return "equality"
    if conflict is StructuralConflict.FD_VIOLATED:
        return "fd"
    return "backward"


class StructureModule(EstimationModule):
    """The pluggable structure module: detector + repair planner."""

    name = "structure"

    def __init__(
        self,
        max_path_length: int = DEFAULT_MAX_PATH_LENGTH,
        use_conciseness: bool = True,
    ) -> None:
        self.detector = StructureConflictDetector(
            max_path_length=max_path_length,
            use_conciseness=use_conciseness,
        )
        self.planner = StructureRepairPlanner()

    def assess(self, scenario: IntegrationScenario) -> StructureComplexityReport:
        violations: list[StructureViolation] = []
        for source, correspondences in scenario.pairs():
            violations.extend(
                self.detector.detect(source, scenario.target, correspondences)
            )
        return StructureComplexityReport(violations)

    def plan(
        self,
        scenario: IntegrationScenario,
        report: StructureComplexityReport,
        quality: ResultQuality,
    ) -> list[Task]:
        tasks: list[Task] = []
        for source, correspondences in scenario.pairs():
            source_violations = [
                violation
                for violation in report.violations
                if violation.source_database == source.name
            ]
            tasks.extend(
                self.planner.plan(
                    scenario, correspondences, source_violations, quality
                )
            )
        return tasks
