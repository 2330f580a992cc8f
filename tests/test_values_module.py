"""Unit tests for the value-heterogeneities module (Algorithm 1, Tables 6-8)."""

import json

import pytest

from repro.core import ResultQuality
from repro.core.modules.values import (
    DEFAULT_FIT_THRESHOLD,
    ValueFitDetector,
    ValueModule,
    ValueTransformationPlanner,
    weighted_fit,
)
from repro.core.tasks import TaskType, ValueHeterogeneity
from repro.matching import (
    CorrespondenceSet,
    attribute_correspondence,
    relation_correspondence,
)
from repro.relational import Database, DataType, Schema, relation
from repro.scenarios.scenario import IntegrationScenario


def pair_scenario(source_values, target_values, source_type, target_type):
    """A one-attribute-pair scenario for isolated rule testing."""
    source_schema = Schema(
        "src", relations=[relation("s", [("v", source_type)])]
    )
    target_schema = Schema(
        "tgt", relations=[relation("t", [("v", target_type)])]
    )
    source = Database(source_schema)
    source.insert_all("s", [(value,) for value in source_values])
    target = Database(target_schema)
    target.insert_all("t", [(value,) for value in target_values])
    cset = CorrespondenceSet(
        [
            relation_correspondence("s", "t"),
            attribute_correspondence("s.v", "t.v"),
        ]
    )
    return IntegrationScenario("pair", source, target, cset)


def detect(scenario, threshold=DEFAULT_FIT_THRESHOLD):
    detector = ValueFitDetector(fit_threshold=threshold)
    source = scenario.sources[0]
    return detector.detect(
        source, scenario.target, scenario.correspondences[source.name]
    )


class TestAlgorithm1Rules:
    def test_rule1_too_few_elements(self):
        scenario = pair_scenario(
            ["a", None, None, None], ["w", "x", "y", "z"],
            DataType.STRING, DataType.STRING,
        )
        findings = detect(scenario)
        assert any(
            f.heterogeneity is ValueHeterogeneity.TOO_FEW_ELEMENTS
            for f in findings
        )

    def test_rule2_critical_incompatibility(self):
        scenario = pair_scenario(
            ["1999", "unknown", "2001"], [1999, 2001, 2005],
            DataType.STRING, DataType.INTEGER,
        )
        findings = detect(scenario)
        assert any(
            f.heterogeneity
            is ValueHeterogeneity.DIFFERENT_REPRESENTATIONS_CRITICAL
            for f in findings
        )

    def test_rule2_dominates_domain_rules(self):
        scenario = pair_scenario(
            ["x"] * 10, [1, 2, 3], DataType.STRING, DataType.INTEGER
        )
        findings = detect(scenario)
        kinds = {f.heterogeneity for f in findings}
        assert ValueHeterogeneity.DIFFERENT_REPRESENTATIONS not in kinds

    def test_rule3_too_coarse(self):
        # domain-restricted source (two categories) vs free-text target
        scenario = pair_scenario(
            ["hi", "lo"] * 30,
            [f"text {i} {'x' * (i % 5)}" for i in range(60)],
            DataType.STRING, DataType.STRING,
        )
        findings = detect(scenario)
        assert any(
            f.heterogeneity is ValueHeterogeneity.TOO_COARSE_GRAINED
            for f in findings
        )

    def test_rule4_too_fine(self):
        scenario = pair_scenario(
            [f"text {i} {'x' * (i % 5)}" for i in range(60)],
            ["hi", "lo"] * 30,
            DataType.STRING, DataType.STRING,
        )
        findings = detect(scenario)
        assert any(
            f.heterogeneity is ValueHeterogeneity.TOO_FINE_GRAINED
            for f in findings
        )

    def test_rule5_representation_mismatch(self):
        scenario = pair_scenario(
            [215900 + i * 997 for i in range(60)],
            [f"{i % 9}:{i % 60:02d}" for i in range(60)],
            DataType.INTEGER, DataType.STRING,
        )
        findings = detect(scenario)
        assert [f.heterogeneity for f in findings] == [
            ValueHeterogeneity.DIFFERENT_REPRESENTATIONS
        ]

    def test_identical_columns_are_clean(self):
        values = [f"value {i}" for i in range(50)]
        scenario = pair_scenario(
            values, values, DataType.STRING, DataType.STRING
        )
        assert detect(scenario) == []

    def test_threshold_is_configurable(self):
        values = [f"value {i}" for i in range(50)]
        scenario = pair_scenario(
            values, values, DataType.STRING, DataType.STRING
        )
        # An absurd threshold of 1.01 flags even identical columns.
        findings = detect(scenario, threshold=1.01)
        assert findings


class TestTable6Report:
    def test_running_example_report(self, example_reports):
        report = example_reports["values"]
        assert len(report.findings) == 1
        finding = report.findings[0]
        assert finding.heterogeneity is ValueHeterogeneity.DIFFERENT_REPRESENTATIONS
        assert finding.source_attribute == "songs.length"
        assert finding.target_attribute == "tracks.duration"

    def test_parameters_carry_counts(self, example_reports):
        finding = example_reports["values"].findings[0]
        assert finding.parameters["values"] > 0
        assert finding.parameters["distinct_values"] > 0
        assert finding.parameters["fit"] < DEFAULT_FIT_THRESHOLD

    def test_fk_correspondences_skipped(self, example_reports):
        report = example_reports["values"]
        assert not any(
            f.target_attribute == "tracks.record" for f in report.findings
        )


class TestWeightedFit:
    def test_breakdown_exposes_components(self, example):
        from repro.profiling import profile_column

        source = profile_column(
            example.sources[0], "songs", "length", datatype=DataType.STRING
        )
        target = profile_column(example.target, "tracks", "duration")
        breakdown = weighted_fit(source, target)
        assert breakdown.overall < 0.5
        importance, fit = breakdown.component("text_pattern")
        assert importance == pytest.approx(1.0)
        assert fit == 0.0

    def test_unknown_component_raises(self, example):
        from repro.profiling import profile_column

        profile = profile_column(example.target, "tracks", "duration")
        breakdown = weighted_fit(profile, profile)
        with pytest.raises(KeyError):
            breakdown.component("nonexistent")


class TestTable7Planner:
    def _finding(self, heterogeneity, **parameters):
        from repro.core.reports import ValueHeterogeneityFinding

        defaults = {"values": 100.0, "distinct_values": 90.0,
                    "representations": 1.0}
        defaults.update(parameters)
        return ValueHeterogeneityFinding(
            source_database="src",
            source_attribute="s.v",
            target_attribute="t.v",
            heterogeneity=heterogeneity,
            parameters=defaults,
        )

    def test_low_effort_ignores_uncritical(self):
        planner = ValueTransformationPlanner()
        tasks = planner.plan(
            [self._finding(ValueHeterogeneity.DIFFERENT_REPRESENTATIONS)],
            ResultQuality.LOW_EFFORT,
        )
        assert tasks == []

    def test_low_effort_drops_critical(self):
        planner = ValueTransformationPlanner()
        tasks = planner.plan(
            [
                self._finding(
                    ValueHeterogeneity.DIFFERENT_REPRESENTATIONS_CRITICAL
                )
            ],
            ResultQuality.LOW_EFFORT,
        )
        assert [t.type for t in tasks] == [TaskType.DROP_VALUES]

    def test_high_quality_converts(self):
        planner = ValueTransformationPlanner()
        tasks = planner.plan(
            [self._finding(ValueHeterogeneity.DIFFERENT_REPRESENTATIONS)],
            ResultQuality.HIGH_QUALITY,
        )
        assert [t.type for t in tasks] == [TaskType.CONVERT_VALUES]

    def test_granularity_tasks(self):
        planner = ValueTransformationPlanner()
        coarse = planner.plan(
            [self._finding(ValueHeterogeneity.TOO_COARSE_GRAINED)],
            ResultQuality.HIGH_QUALITY,
        )
        fine = planner.plan(
            [self._finding(ValueHeterogeneity.TOO_FINE_GRAINED)],
            ResultQuality.HIGH_QUALITY,
        )
        assert [t.type for t in coarse] == [TaskType.REFINE_VALUES]
        assert [t.type for t in fine] == [TaskType.GENERALIZE_VALUES]


class TestTable8Effort:
    def test_convert_values_costs_15_minutes(self, example, efes):
        """Table 8: the length → duration conversion totals 15 minutes."""
        module = next(m for m in efes.modules if m.name == "values")
        report = module.assess(example)
        tasks = module.plan(example, report, ResultQuality.HIGH_QUALITY)
        from repro.core.effort import price_tasks

        estimate = price_tasks(
            "example", ResultQuality.HIGH_QUALITY, tasks, efes.settings
        )
        assert estimate.total_minutes == 15.0

    def test_low_effort_value_cleaning_is_free(self, example, efes):
        module = next(m for m in efes.modules if m.name == "values")
        report = module.assess(example)
        tasks = module.plan(example, report, ResultQuality.LOW_EFFORT)
        assert tasks == []


class TestWideNumericColumn:
    def test_values_module_survives_a_column_wider_than_a_float(self):
        """Two positions of m1-f2 at -10**308 and 10**308: the column's
        squares and range overflow a float, yet the value module runs."""
        from repro import Runtime, default_efes
        from repro.scenarios import scenario_m1_f2

        scenario = scenario_m1_f2(3)
        (source,) = [s for s in scenario.sources if s.schema.has_relation("rtracks")]
        tracks = source.table("rtracks")
        for row, value in zip(tracks.rows[:2], (-(10**308), 10**308)):
            tracks.update_where(
                lambda other, row=tracks.row_dict(row): other == row,
                {"position": value},
            )
        assert tracks.column("position")[:2] == [-(10**308), 10**308]
        efes = default_efes(runtime=Runtime("serial"))
        outcome = efes.run(scenario, ResultQuality.HIGH_QUALITY, strict=True)
        assert outcome.degradations == []
        assert "values" in outcome.reports

    def test_values_module_survives_an_int_beyond_float_range(self):
        """One position of m1-f2 at 10**309, beyond the largest double,
        or at 10**5000, past the 4,300-digit int-to-text limit: it counts
        as uncastable to FLOAT, fingerprints, and the value module runs."""
        from repro import Runtime, default_efes
        from repro.core.serialize import reports_to_dict
        from repro.scenarios import scenario_m1_f2

        for wide in (10**309, 10**5000):
            scenario = scenario_m1_f2(3)
            (source,) = [
                s for s in scenario.sources if s.schema.has_relation("rtracks")
            ]
            tracks = source.table("rtracks")
            row = tracks.row_dict(tracks.rows[0])
            tracks.update_where(lambda other: other == row, {"position": wide})
            assert tracks.column("position")[0] == wide
            efes = default_efes(runtime=Runtime("serial"))
            outcome = efes.run(scenario, ResultQuality.HIGH_QUALITY, strict=True)
            assert outcome.degradations == []
            assert "values" in outcome.reports
            json.dumps(reports_to_dict(outcome.reports))

    def test_values_module_survives_a_wide_int_profiled_as_text(self):
        """m1-d2 profiles its int column ``rtracks.position`` against a
        STRING target.  With position 1 at 10**5000, past the 4,300-digit
        int-to-text limit, that int takes its hex text: the run is strict,
        nothing degrades and the reports serialise."""
        from repro import Runtime, default_efes
        from repro.core.serialize import reports_to_dict
        from repro.scenarios import scenario_m1_d2

        scenario = scenario_m1_d2(3)
        (source,) = [
            s for s in scenario.sources if s.schema.has_relation("rtracks")
        ]
        tracks = source.table("rtracks")
        assert tracks.update_where(
            lambda row: row["position"] == 1, {"position": 10**5000}
        )
        efes = default_efes(runtime=Runtime("serial"))
        outcome = efes.run(scenario, ResultQuality.HIGH_QUALITY, strict=True)
        assert outcome.degradations == []
        assert "values" in outcome.reports
        json.dumps(reports_to_dict(outcome.reports))
