"""One consolidated module asserting every paper-exact number.

Each claim also lives next to its module tests and in the benchmarks;
this module is the single place a reviewer can read to see what the
reproduction pins down exactly (see EXPERIMENTS.md for the full
paper-vs-measured index including the shape-level claims).
"""

import pytest

from repro.core import ResultQuality
from repro.core.effort import ExecutionSettings, constant, linear, price_tasks
from repro.core.tasks import TaskCategory, TaskType


@pytest.fixture(scope="module")
def high_estimate(example, efes):
    return efes.estimate(example, ResultQuality.HIGH_QUALITY)


class TestTable2:
    def test_rows(self, example_reports):
        rows = {
            c.target_table: (c.source_tables, c.attributes, c.needs_primary_key)
            for c in example_reports["mapping"].connections
        }
        assert rows == {
            "records": (3, 2, True),
            "tracks": (3, 2, False),
        }


class TestTable3:
    def test_counts(self, example_reports):
        counts = {
            (v.target_relationship, v.prescribed): v.violation_count
            for v in example_reports["structure"].violations
        }
        assert counts == {
            ("records->records.artist", "1"): 503,
            ("records.artist->records", "1..*"): 102,
        }


class TestTable5:
    def test_total_224_minutes(self, high_estimate):
        assert high_estimate.by_category()[
            TaskCategory.CLEANING_STRUCTURE
        ] == pytest.approx(224.0)

    def test_task_breakdown(self, high_estimate):
        structure = {
            entry.task.type: entry.minutes
            for entry in high_estimate.entries
            if entry.task.category is TaskCategory.CLEANING_STRUCTURE
        }
        assert structure == {
            TaskType.ADD_TUPLES: 5.0,
            TaskType.ADD_MISSING_VALUES: 204.0,
            TaskType.MERGE_VALUES: 15.0,
        }


class TestTable6:
    def test_single_finding_on_duration(self, example_reports):
        findings = example_reports["values"].findings
        assert [(f.source_attribute, f.target_attribute) for f in findings] == [
            ("songs.length", "tracks.duration")
        ]


class TestTable8:
    def test_value_cleaning_is_15_minutes(self, high_estimate):
        assert high_estimate.by_category()[
            TaskCategory.CLEANING_VALUES
        ] == pytest.approx(15.0)


class TestExample38:
    def test_manual_25_and_tooled_4_minutes(self, example, efes):
        mapping = next(m for m in efes.modules if m.name == "mapping")
        report = mapping.assess(example)
        tasks = mapping.plan(example, report, ResultQuality.HIGH_QUALITY)
        manual = ExecutionSettings(
            {
                TaskType.WRITE_MAPPING: linear(
                    tables=3.0, attributes=1.0, primary_keys=3.0
                )
            }
        )
        tooled = ExecutionSettings({TaskType.WRITE_MAPPING: constant(2.0)})
        assert price_tasks(
            "e", ResultQuality.HIGH_QUALITY, tasks, manual
        ).total_minutes == pytest.approx(25.0)
        assert price_tasks(
            "e", ResultQuality.HIGH_QUALITY, tasks, tooled
        ).total_minutes == pytest.approx(4.0)


class TestSection62Runtime:
    def test_assessment_completes_within_seconds(self, example, efes):
        import time

        started = time.perf_counter()
        efes.assess(example)
        assert time.perf_counter() - started < 10.0


class TestRuntimeRegression:
    """The paper-exact numbers survive the cached runtime.

    The baseline configuration (Table 1) and the running example's
    estimates (Tables 5/8) must be byte-for-byte unchanged when every
    detector and profile runs on a fresh runtime with a cold cache.
    """

    @pytest.fixture(scope="class")
    def fresh_runtime(self):
        from repro.runtime import Runtime

        return Runtime()

    @pytest.fixture(scope="class")
    def fresh_estimate(self, example, fresh_runtime):
        from repro.core import default_efes

        return default_efes(runtime=fresh_runtime).estimate(
            example, ResultQuality.HIGH_QUALITY
        )

    def test_table1_baseline_unchanged(self, example, fresh_runtime):
        from repro.core import (
            HARDEN_TASKS,
            HOURS_PER_ATTRIBUTE,
            AttributeCountingBaseline,
        )

        assert HOURS_PER_ATTRIBUTE == pytest.approx(8.05)
        assert sum(hours for _, hours in HARDEN_TASKS) == pytest.approx(8.05)
        with fresh_runtime.activated():
            baseline = AttributeCountingBaseline().estimate(
                example, ResultQuality.HIGH_QUALITY
            )
        assert baseline.total_minutes == pytest.approx(
            8.05 * 60 * example.total_source_attributes()
        )

    def test_table5_structure_total_unchanged(self, fresh_estimate):
        assert fresh_estimate.by_category()[
            TaskCategory.CLEANING_STRUCTURE
        ] == pytest.approx(224.0)

    def test_table8_value_total_unchanged(self, fresh_estimate):
        assert fresh_estimate.by_category()[
            TaskCategory.CLEANING_VALUES
        ] == pytest.approx(15.0)

    def test_whole_estimate_matches_serial(self, fresh_estimate, high_estimate):
        assert repr(fresh_estimate) == repr(high_estimate)
