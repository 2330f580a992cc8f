"""Unit tests for the EFES framework shell (modularity, extensibility)."""

import pytest

from repro.core import (
    Efes,
    EstimationModule,
    ResultQuality,
    default_efes,
    default_execution_settings,
    default_modules,
)
from repro.core.effort import constant
from repro.core.reports import ComplexityReport
from repro.core.tasks import Task, TaskType
from repro.core.modules.values import make_drop_instead_of_add
from repro.runtime import Runtime


class FakeReport(ComplexityReport):
    module = "fake"

    def __init__(self, issues):
        self.issues = issues

    def is_empty(self):
        return not self.issues


class FakeModule(EstimationModule):
    """A deduplication-style custom module (extensibility check)."""

    name = "fake"

    def assess(self, scenario):
        return FakeReport(["dup"] * 3)

    def plan(self, scenario, report, quality):
        return [
            Task(
                type=TaskType.AGGREGATE_TUPLES,
                quality=quality,
                subject="dup",
                parameters={"repetitions": len(report.issues)},
                module=self.name,
            )
        ]


class TestEfesAssembly:
    def test_default_modules(self):
        names = [module.name for module in default_modules()]
        assert names == ["mapping", "structure", "values"]

    def test_duplicate_module_names_rejected(self):
        with pytest.raises(ValueError):
            Efes([FakeModule(), FakeModule()])

    def test_custom_module_pluggable(self, small_example):
        efes = Efes([FakeModule()])
        reports = efes.assess(small_example)
        assert set(reports) == {"fake"}
        estimate = efes.estimate(small_example, ResultQuality.HIGH_QUALITY)
        assert estimate.total_minutes == 5.0

    def test_mixed_modules(self, small_example):
        efes = Efes(default_modules() + [FakeModule()])
        reports = efes.assess(small_example)
        assert "fake" in reports and "structure" in reports

    def test_with_settings(self, small_example):
        settings = default_execution_settings().with_scale(10.0)
        efes = Efes([FakeModule()]).with_settings(settings)
        estimate = efes.estimate(small_example, ResultQuality.LOW_EFFORT)
        assert estimate.total_minutes == 50.0


class TestPipeline:
    def test_plan_reuses_reports(self, small_example):
        efes = default_efes()
        reports = efes.assess(small_example)
        tasks_a = efes.plan(small_example, ResultQuality.HIGH_QUALITY, reports)
        tasks_b = efes.plan(small_example, ResultQuality.HIGH_QUALITY)
        assert [t.describe() for t in tasks_a] == [t.describe() for t in tasks_b]

    def test_quality_changes_plan(self, small_example):
        efes = default_efes()
        low = efes.plan(small_example, ResultQuality.LOW_EFFORT)
        high = efes.plan(small_example, ResultQuality.HIGH_QUALITY)
        assert {t.type for t in low} != {t.type for t in high}

    def test_tasks_carry_module_provenance(self, small_example):
        efes = default_efes()
        tasks = efes.plan(small_example, ResultQuality.HIGH_QUALITY)
        assert {t.module for t in tasks} <= {"mapping", "structure", "values"}
        assert any(t.module == "mapping" for t in tasks)

    def test_estimate_totals_are_consistent(self, small_example):
        efes = default_efes()
        estimate = efes.estimate(small_example, ResultQuality.HIGH_QUALITY)
        assert estimate.total_minutes == pytest.approx(
            sum(entry.minutes for entry in estimate.entries)
        )


class TestQualityBoundary:
    """A quality that is not a ResultQuality fails before any detector."""

    ENTRY_POINTS = {
        "run": lambda efes, scenario, quality: efes.run(scenario, quality),
        "run_traced": lambda efes, scenario, quality: efes.run(
            scenario, quality, trace=True
        ),
        "estimate": lambda efes, scenario, quality: efes.estimate(
            scenario, quality
        ),
        "plan": lambda efes, scenario, quality: efes.plan(scenario, quality),
    }

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    @pytest.mark.parametrize("quality", ["high", "high_quality", None])
    def test_rejected_before_profiling(self, small_example, entry, quality):
        efes = default_efes(runtime=Runtime("serial"))
        with pytest.raises(TypeError, match="ResultQuality"):
            self.ENTRY_POINTS[entry](efes, small_example, quality)
        assert efes.metrics.histogram("stage_seconds", stage="profile") is None

    def test_valid_quality_profiles(self, small_example):
        efes = default_efes(runtime=Runtime("serial"))
        outcome = efes.run(small_example, ResultQuality.HIGH_QUALITY)
        assert not outcome.degradations
        assert efes.metrics.histogram("stage_seconds", stage="profile").count


class TestTaskAdjustments:
    def test_drop_instead_of_add(self, small_example):
        """The Section 6.1 revision: un-providable values get rejected."""
        efes = default_efes()
        adjustment = make_drop_instead_of_add("records.title")
        adjusted = efes.estimate(
            small_example, ResultQuality.HIGH_QUALITY, adjustments=[adjustment]
        )
        plain = efes.estimate(small_example, ResultQuality.HIGH_QUALITY)
        assert adjusted.total_minutes < plain.total_minutes
        assert not any(
            entry.task.type == TaskType.ADD_MISSING_VALUES
            and "records.title" in entry.task.subject
            for entry in adjusted.entries
        )

    def test_adjustment_preserves_other_tasks(self, small_example):
        efes = default_efes()
        adjustment = make_drop_instead_of_add("no.such.subject")
        adjusted = efes.estimate(
            small_example, ResultQuality.HIGH_QUALITY, adjustments=[adjustment]
        )
        plain = efes.estimate(small_example, ResultQuality.HIGH_QUALITY)
        assert adjusted.total_minutes == plain.total_minutes
