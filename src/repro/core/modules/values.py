"""The value-heterogeneities estimation module (Section 5).

The *value fit detector* aggregates source and target columns into
statistics and compares them with the decision model of Algorithm 1; the
*value transformation planner* maps detected heterogeneities to cleaning
tasks via Table 7.  Unlike structure repairs, "those tasks do not have
interdependencies", so planning is a straight catalogue lookup.

The detector's findings are cached per source content in the runtime's
``ProfileCache``, so a re-quote of assessed content profiles and fits
nothing.
"""

from __future__ import annotations

import dataclasses

from ...matching.correspondence import Correspondence, CorrespondenceSet
from ...profiling.profiler import ColumnProfile, profile_column
from ...relational.database import Database
from ...runtime import ContentKey, get_runtime
from ...scenarios.scenario import IntegrationScenario
from ..framework import EstimationModule
from ..quality import ResultQuality
from ..reports import ValueComplexityReport, ValueHeterogeneityFinding
from ..tasks import VALUE_TASK_CATALOGUE, Task, TaskType, ValueHeterogeneity

#: "we found 0.9 to be a good threshold to separate seamlessly integrating
#: attribute pairs from those that had notably different characteristics."
DEFAULT_FIT_THRESHOLD = 0.9

#: Rule 1: the source is "substantially" emptier than the target when its
#: filled fraction is below this ratio of the target's.
FEWER_VALUES_RATIO = 0.6

#: Rule 2: tolerated fraction of uncastable source values before the
#: representations count as critically different.
INCOMPATIBLE_TOLERANCE = 0.02


@dataclasses.dataclass(frozen=True)
class FitBreakdown:
    """The per-statistic importance/fit pairs behind an overall fit value.

    Exposed for the Granularity requirement: users see *which* statistic
    caused a low fit (e.g. the text pattern of ``duration``).
    """

    overall: float
    components: tuple[tuple[str, float, float], ...]  # (name, importance, fit)

    def component(self, name: str) -> tuple[float, float]:
        for stat_name, importance, fit in self.components:
            if stat_name == name:
                return importance, fit
        raise KeyError(name)


def weighted_fit(
    source: ColumnProfile, target: ColumnProfile
) -> FitBreakdown:
    """f = Σ i(S_t(τ)) · f(S_s(τ), S_t(τ)) with normalised importances."""
    components: list[tuple[str, float, float]] = []
    total_importance = 0.0
    weighted = 0.0
    for name, target_statistic in target.statistics.items():
        source_statistic = source.statistics.get(name)
        if source_statistic is None:
            continue
        importance = target_statistic.importance()
        fit = target_statistic.fit(source_statistic)
        components.append((name, importance, fit))
        total_importance += importance
        weighted += importance * fit
    overall = weighted / total_importance if total_importance > 0 else 1.0
    return FitBreakdown(overall, tuple(components))


class ValueFitDetector:
    """Phase-1 half of the value module (Algorithm 1)."""

    def __init__(self, fit_threshold: float = DEFAULT_FIT_THRESHOLD) -> None:
        self.fit_threshold = fit_threshold

    def detect(
        self,
        source: Database,
        target: Database,
        correspondences: CorrespondenceSet,
    ) -> list[ValueHeterogeneityFinding]:
        """The findings of ``source`` against ``target``, cached per source
        content on the active runtime, like the structure detector's.

        They are a pure function of both contents (the target's foreign
        keys included), the correspondences and the fit threshold, which
        make up the cache key.  Only the source's name is applied after
        the lookup, so a content-identical source under another name
        reports its own.
        """
        findings = get_runtime().cache.get_or_compute(
            source,
            (
                "values",
                ContentKey(target),
                tuple(correspondences),
                self.fit_threshold,
            ),
            lambda: tuple(self._detect(source, target, correspondences)),
        )
        return [
            dataclasses.replace(finding, source_database=source.name)
            for finding in findings
        ]

    def _detect(
        self,
        source: Database,
        target: Database,
        correspondences: CorrespondenceSet,
    ) -> list[ValueHeterogeneityFinding]:
        findings: list[ValueHeterogeneityFinding] = []
        populated = set(correspondences.target_relations())
        resolved_fk_attributes = {
            (fk.relation, attribute)
            for fk in target.schema.foreign_keys()
            if fk.referenced in populated
            for attribute in fk.attributes
        }
        for correspondence in correspondences.attribute_correspondences():
            key = (
                correspondence.target_relation,
                correspondence.target_attribute,
            )
            if key in resolved_fk_attributes:
                # FK values are re-generated during reference resolution in
                # the mapping, so their representations never meet.
                continue
            findings.extend(
                self._inspect_pair(source, target, correspondence)
            )
        return findings

    def _inspect_pair(
        self,
        source: Database,
        target: Database,
        correspondence: Correspondence,
    ) -> list[ValueHeterogeneityFinding]:
        target_attribute = target.schema.attribute(
            correspondence.target_relation, correspondence.target_attribute
        )
        # Both sides are profiled against the *target* datatype so the
        # statistics live in the same value space (Section 5.1).
        source_profile = profile_column(
            source,
            correspondence.source_relation,
            correspondence.source_attribute,
            datatype=target_attribute.datatype,
        )
        target_profile = profile_column(
            target,
            correspondence.target_relation,
            correspondence.target_attribute,
            datatype=target_attribute.datatype,
        )
        findings: list[ValueHeterogeneityFinding] = []
        source_values = source_profile.row_count
        distinct = source_profile.distinct_count

        pattern_statistic = source_profile.statistics.get("text_pattern")
        representations = (
            float(len(pattern_statistic.distribution))
            if pattern_statistic is not None
            else 1.0
        )

        def emit(
            heterogeneity: ValueHeterogeneity, **extra: float
        ) -> None:
            parameters = {
                "values": float(source_values),
                "distinct_values": float(distinct),
                "representations": representations,
            }
            parameters.update(extra)
            findings.append(
                ValueHeterogeneityFinding(
                    source_database=source.name,
                    source_attribute=correspondence.source,
                    target_attribute=correspondence.target,
                    heterogeneity=heterogeneity,
                    parameters=parameters,
                )
            )

        # Rule 1: substantiallyFewerSourceValues — compares *presence* of
        # values (nulls); castability is rule 2's concern.
        source_fill = source_profile.fill_status.non_null_fraction
        target_fill = target_profile.fill_status.non_null_fraction
        if target_fill > 0 and source_fill < FEWER_VALUES_RATIO * target_fill:
            missing = round((target_fill - source_fill) * source_values)
            emit(ValueHeterogeneity.TOO_FEW_ELEMENTS, values=float(missing))

        # Rule 2: hasIncompatibleValues
        if (
            source_profile.fill_status.incompatible_fraction
            > INCOMPATIBLE_TOLERANCE
        ):
            emit(
                ValueHeterogeneity.DIFFERENT_REPRESENTATIONS_CRITICAL,
                incompatible=float(source_profile.fill_status.uncastable),
            )
            return findings  # critical difference dominates the domain rules

        # Rules 3-5: domain granularity and domain-specific differences
        source_restricted = source_profile.is_domain_restricted
        target_restricted = target_profile.is_domain_restricted
        if source_restricted and not target_restricted:
            emit(ValueHeterogeneity.TOO_COARSE_GRAINED)
        elif not source_restricted and target_restricted:
            emit(ValueHeterogeneity.TOO_FINE_GRAINED)
        else:
            breakdown = weighted_fit(source_profile, target_profile)
            if (
                target_profile.row_count > 0
                and source_profile.row_count > 0
                and breakdown.overall < self.fit_threshold
            ):
                emit(
                    ValueHeterogeneity.DIFFERENT_REPRESENTATIONS,
                    fit=breakdown.overall,
                )
        return findings


class ValueTransformationPlanner:
    """Phase-2 half of the value module: Table 7 catalogue lookups."""

    def plan(
        self,
        findings: list[ValueHeterogeneityFinding],
        quality: ResultQuality,
    ) -> list[Task]:
        tasks: list[Task] = []
        for finding in findings:
            task_type = VALUE_TASK_CATALOGUE[finding.heterogeneity][quality]
            if task_type is None:
                continue  # heterogeneity is simply ignored at this quality
            tasks.append(
                Task(
                    type=task_type,
                    quality=quality,
                    subject=(
                        f"{finding.source_attribute} -> "
                        f"{finding.target_attribute}"
                    ),
                    parameters=dict(finding.parameters),
                    module="values",
                )
            )
        return tasks


class ValueModule(EstimationModule):
    """The pluggable value-heterogeneities module."""

    name = "values"

    def __init__(self, fit_threshold: float = DEFAULT_FIT_THRESHOLD) -> None:
        self.detector = ValueFitDetector(fit_threshold=fit_threshold)
        self.planner = ValueTransformationPlanner()

    def assess(self, scenario: IntegrationScenario) -> ValueComplexityReport:
        findings: list[ValueHeterogeneityFinding] = []
        for source, correspondences in scenario.pairs():
            findings.extend(
                self.detector.detect(source, scenario.target, correspondences)
            )
        return ValueComplexityReport(findings)

    def plan(
        self,
        scenario: IntegrationScenario,
        report: ValueComplexityReport,
        quality: ResultQuality,
    ) -> list[Task]:
        return self.planner.plan(report.findings, quality)


def make_drop_instead_of_add(subject_fragment: str):
    """A :class:`~repro.core.framework.TaskAdjustment` like the FreeDB-id
    revision of Section 6.1: replace *Add values*/*Add missing values* on a
    matching subject with *Reject tuples*."""

    def adjust(tasks: list[Task]) -> list[Task]:
        revised: list[Task] = []
        for task in tasks:
            if (
                task.type in (TaskType.ADD_VALUES, TaskType.ADD_MISSING_VALUES)
                and subject_fragment in task.subject
            ):
                revised.append(
                    Task(
                        type=TaskType.REJECT_TUPLES,
                        quality=task.quality,
                        subject=task.subject,
                        parameters=dict(task.parameters),
                        module=task.module,
                    )
                )
            else:
                revised.append(task)
        return revised

    return adjust
