"""Tests for n-ary uniqueness detection via the join operator (Lemma 3)."""

import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import ResultQuality, default_efes
from repro.core.modules.structure import duplicate_combinations
from repro.core.tasks import StructuralConflict, TaskType
from repro.matching import (
    CorrespondenceSet,
    attribute_correspondence,
    relation_correspondence,
)
from repro.practitioner import PractitionerSimulator
from repro.relational import (
    Database,
    DataType,
    Schema,
    primary_key,
    relation,
    unique,
)
from repro.relational.validation import is_valid
from repro.scenarios.scenario import IntegrationScenario


def composite_scenario(source_rows, source_constraints=()):
    source_schema = Schema(
        "src",
        relations=[
            relation(
                "s",
                [("k", DataType.INTEGER), ("pos", DataType.INTEGER), "v"],
            )
        ],
        constraints=list(source_constraints),
    )
    target_schema = Schema(
        "tgt",
        relations=[
            relation(
                "t",
                [("k", DataType.INTEGER), ("pos", DataType.INTEGER), "v"],
            )
        ],
        constraints=[primary_key("t", ("k", "pos"))],
    )
    source = Database(source_schema)
    source.insert_all("s", source_rows)
    target = Database(target_schema)
    correspondences = CorrespondenceSet(
        [
            relation_correspondence("s", "t"),
            attribute_correspondence("s.k", "t.k"),
            attribute_correspondence("s.pos", "t.pos"),
            attribute_correspondence("s.v", "t.v"),
        ]
    )
    return IntegrationScenario("nary", source, target, correspondences)


def composite_violations(scenario):
    report = default_efes().assess(scenario)["structure"]
    return [
        v
        for v in report.violations
        if v.conflict is StructuralConflict.UNIQUE_VIOLATED
        and "(" in v.target_attribute
    ]


class TestDetection:
    def test_duplicate_combination_detected(self):
        scenario = composite_scenario(
            [(1, 1, "a"), (1, 1, "b"), (2, 1, "c"), (2, 2, "d")]
        )
        rows = composite_violations(scenario)
        assert len(rows) == 1
        assert rows[0].violation_count == 1
        assert rows[0].target_attribute == "(k, pos)"

    def test_multiple_duplicates_counted(self):
        scenario = composite_scenario(
            [(1, 1, "a"), (1, 1, "b"), (1, 1, "c"), (2, 2, "d"), (2, 2, "e")]
        )
        rows = composite_violations(scenario)
        assert rows[0].violation_count == 3  # 2 extras + 1 extra

    def test_unique_combinations_are_clean(self):
        scenario = composite_scenario(
            [(1, 1, "a"), (1, 2, "b"), (2, 1, "c")]
        )
        assert composite_violations(scenario) == []

    def test_source_key_suppresses_check(self):
        """If the source already enforces the composite key, the inferred
        join cardinality is ⊆ 1 and no data scan is needed."""
        scenario = composite_scenario(
            [(1, 1, "a"), (1, 2, "b")],
            source_constraints=[unique("s", ("k", "pos"))],
        )
        assert composite_violations(scenario) == []

    def test_null_components_are_exempt(self):
        scenario = composite_scenario(
            [(1, None, "a"), (1, None, "b"), (2, 1, "c")]
        )
        assert composite_violations(scenario) == []

    def test_inferred_cardinality_reported(self):
        scenario = composite_scenario([(1, 1, "a"), (1, 1, "b")])
        rows = composite_violations(scenario)
        assert rows[0].prescribed == "1"
        assert not rows[0].inferred.startswith("1..1")


class TestPlanningAndSimulation:
    def test_high_quality_plan_aggregates_tuples(self):
        scenario = composite_scenario([(1, 1, "a"), (1, 1, "b"), (2, 1, "c")])
        estimate = default_efes().estimate(
            scenario, ResultQuality.HIGH_QUALITY
        )
        types = [entry.task.type for entry in estimate.entries]
        assert TaskType.AGGREGATE_TUPLES in types

    def test_low_effort_plan_nulls_values(self):
        scenario = composite_scenario([(1, 1, "a"), (1, 1, "b"), (2, 1, "c")])
        estimate = default_efes().estimate(scenario, ResultQuality.LOW_EFFORT)
        types = [entry.task.type for entry in estimate.entries]
        assert TaskType.SET_VALUES_TO_NULL in types

    @pytest.mark.parametrize(
        "quality", [ResultQuality.LOW_EFFORT, ResultQuality.HIGH_QUALITY]
    )
    def test_simulator_respects_composite_key(self, quality):
        scenario = composite_scenario(
            [(1, 1, "a"), (1, 1, "b"), (2, 1, "c"), (2, 2, "d")]
        )
        result = PractitionerSimulator().integrate(scenario, quality)
        assert is_valid(result.target)


def reference_duplicate_combinations(image_sets):
    """The per-element loop the detector ran before counting with one
    ``Counter`` over the products of image columns."""
    seen = {}
    for element in image_sets[0].keys():
        images = [images_of.get(element, set()) for images_of in image_sets]
        if not all(images):
            continue
        for combo in itertools.product(*images):
            seen[combo] = seen.get(combo, 0) + 1
    duplicate_extras = sum(count - 1 for count in seen.values() if count > 1)
    return duplicate_extras, len(seen)


#: Few elements and images, so combinations are shared; an image set may
#: be empty, and an element may be missing from a component's map.
_elements = st.integers(0, 7)
_image_set = st.sets(st.sampled_from(["a", "b", 1, 2, None, (1, "a")]), max_size=3)
_image_sets = st.lists(
    st.dictionaries(_elements, _image_set, max_size=8), min_size=2, max_size=4
)


@settings(max_examples=400, deadline=None)
@given(_image_sets)
@example(image_sets=[{1: {"a"}, 2: {"a"}}, {1: {"x"}, 2: {"x"}}])
@example(image_sets=[{1: {"a"}, 2: {"a"}}, {1: {"x"}}])
@example(image_sets=[{1: {"a", "b"}, 2: {"a"}}, {1: {"x"}, 2: set()}])
@example(image_sets=[{}, {1: {"x"}}])
def test_duplicate_combinations_match_the_per_element_loop(image_sets):
    expected = reference_duplicate_combinations(image_sets)
    assert duplicate_combinations(image_sets) == expected
