"""Unit + property tests for the value-fit column statistics."""

import dataclasses
import math
import random
import sys
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.profiling import statistics as statistics_module
from repro.profiling.patterns import extract_pattern
from repro.profiling.profiler import (
    ColumnProfile,
    compute_column_profile,
    statistic_types_for,
)
from repro.profiling.statistics import (
    CharacterHistogram,
    ColumnSummary,
    Constancy,
    FillStatus,
    MeanStatistic,
    NumericHistogram,
    StringLengthStatistic,
    TextPatternStatistic,
    TopKValues,
    ValueRange,
    histogram_intersection,
    shannon_entropy,
)
from repro.relational import Database, Schema, relation
from repro.relational.columnar import is_wide_int
from repro.relational.datatypes import DataType, can_cast, cast
from repro.scenarios import example_scenario
from repro.scenarios.bibliographic import scenario_s1_s2
from repro.scenarios.example import ExampleParameters
from repro.scenarios.music import scenario_m1_d2

DURATIONS = ["4:43", "6:55", "3:26", "5:01", "2:59"]
LENGTHS_MS = [215900, 238100, 218200, 301000, 179000]


class TestHelpers:
    def test_entropy_of_uniform(self):
        assert abs(shannon_entropy([0.5, 0.5]) - 1.0) < 1e-9

    def test_entropy_of_constant(self):
        assert shannon_entropy([1.0]) == 0.0

    def test_histogram_intersection_identical(self):
        dist = {"a": 0.7, "b": 0.3}
        assert abs(histogram_intersection(dist, dist) - 1.0) < 1e-9

    def test_histogram_intersection_disjoint(self):
        assert histogram_intersection({"a": 1.0}, {"b": 1.0}) == 0.0


class TestFillStatus:
    def test_counts(self):
        stat = FillStatus.compute([1, None, "x"], DataType.INTEGER)
        assert stat.total == 3 and stat.nulls == 1 and stat.uncastable == 1

    def test_filled_fraction(self):
        stat = FillStatus.compute([1, None, "x"], DataType.INTEGER)
        assert abs(stat.filled_fraction - 1 / 3) < 1e-9

    def test_non_null_fraction_ignores_castability(self):
        stat = FillStatus.compute([1, None, "x"], DataType.INTEGER)
        assert abs(stat.non_null_fraction - 2 / 3) < 1e-9

    def test_fit_rewards_completeness(self):
        target = FillStatus.compute([1, 2, 3], DataType.INTEGER)
        full = FillStatus.compute([4, 5, 6], DataType.INTEGER)
        sparse = FillStatus.compute([4, None, None], DataType.INTEGER)
        assert target.fit(full) > target.fit(sparse)

    def test_empty_column(self):
        stat = FillStatus.compute([], DataType.STRING)
        assert stat.filled_fraction == 0.0

    @pytest.mark.parametrize(
        "value", [float("nan"), float("inf"), float("-inf")], ids=repr
    )
    def test_non_finite_float_is_uncastable(self, value):
        stat = FillStatus.compute([1.5, value, None], DataType.FLOAT)
        assert (stat.nulls, stat.uncastable) == (1, 1)

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"),
        reason="the interpreter has no int-to-text digit limit",
    )
    @pytest.mark.parametrize("limit, uncastable", [(640, 1), (None, 0)])
    def test_int_column_to_string_follows_the_digit_limit(
        self, limit, uncastable
    ):
        """An int of 701 digits has text under the default limit of 4,300
        digits but not under the least one, 640: the count equals casting
        each value either way."""
        values = [1, 10**700]
        default = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(limit or default)
        try:
            stat = FillStatus.compute(values, DataType.STRING)
            assert stat == reference_fill_status(values, DataType.STRING)
        finally:
            sys.set_int_max_str_digits(default)
        assert stat.uncastable == uncastable


class TestConstancy:
    def test_constant_column(self):
        assert Constancy.compute(["a"] * 10).constancy == 1.0

    def test_all_distinct_column(self):
        stat = Constancy.compute(list(range(100)))
        assert stat.constancy < 0.05

    def test_domain_restriction_by_distinct_count(self):
        stat = Constancy.compute(["x", "y"] * 50)
        assert stat.is_domain_restricted

    def test_free_text_not_restricted(self):
        stat = Constancy.compute([f"value {i}" for i in range(100)])
        assert not stat.is_domain_restricted

    def test_nulls_ignored(self):
        assert Constancy.compute([None, "a", None]).distinct_count == 1

    def test_empty_not_restricted(self):
        assert not Constancy.compute([]).is_domain_restricted


class TestTextPattern:
    def test_importance_of_uniform_format(self):
        stat = TextPatternStatistic.compute(DURATIONS)
        assert stat.importance() == 1.0

    def test_importance_of_mixed_formats(self):
        stat = TextPatternStatistic.compute(["4:43", "abc", "1-2", "x y"])
        assert stat.importance() <= 0.5

    def test_fit_identical_formats(self):
        target = TextPatternStatistic.compute(DURATIONS)
        source = TextPatternStatistic.compute(["9:59", "0:01"])
        assert target.fit(source) == pytest.approx(1.0)

    def test_fit_conflicting_formats(self):
        target = TextPatternStatistic.compute(DURATIONS)
        source = TextPatternStatistic.compute([str(v) for v in LENGTHS_MS])
        assert target.fit(source) == 0.0

    def test_free_text_fits_free_text(self):
        target = TextPatternStatistic.compute(["Sweet Home", "One Two Three"])
        source = TextPatternStatistic.compute(["Another Title Here"])
        assert target.fit(source) >= 0.8


class TestStringLength:
    def test_mean_and_std(self):
        stat = StringLengthStatistic.compute(["ab", "abcd"])
        assert stat.mean == 3.0 and stat.std == 1.0

    def test_fit_same_lengths(self):
        target = StringLengthStatistic.compute(["abcde"] * 5)
        source = StringLengthStatistic.compute(["fghij"] * 3)
        assert target.fit(source) == pytest.approx(1.0)

    def test_fit_decays_with_distance(self):
        target = StringLengthStatistic.compute(["abcd"] * 5)
        near = StringLengthStatistic.compute(["abcde"] * 5)
        far = StringLengthStatistic.compute(["a" * 40] * 5)
        assert target.fit(near) > target.fit(far)

    def test_empty_fits_trivially(self):
        target = StringLengthStatistic.compute([])
        source = StringLengthStatistic.compute(["abc"])
        assert target.fit(source) == 1.0


class TestMeanStatistic:
    def test_computation(self):
        stat = MeanStatistic.compute([1, 2, 3])
        assert stat.mean == 2.0 and abs(stat.std - math.sqrt(2 / 3)) < 1e-9

    def test_fit_magnitude_mismatch(self):
        target = MeanStatistic.compute([200, 250, 300])  # seconds
        source = MeanStatistic.compute(LENGTHS_MS)  # milliseconds
        assert target.fit(source) < 0.1

    def test_fit_similar_scale(self):
        target = MeanStatistic.compute([200, 250, 300])
        source = MeanStatistic.compute([210, 260, 280])
        assert target.fit(source) > 0.8

    def test_non_numeric_ignored(self):
        stat = MeanStatistic.compute(["a", 4])
        assert stat.count == 1


class TestNumericHistogram:
    def test_bins_sum_to_one(self):
        stat = NumericHistogram.compute(list(range(100)))
        assert abs(sum(stat.bins) - 1.0) < 1e-9

    def test_fit_identical_distribution(self):
        target = NumericHistogram.compute(list(range(100)))
        source = NumericHistogram.compute(list(range(100)))
        assert target.fit(source) > 0.9

    def test_fit_disjoint_ranges(self):
        target = NumericHistogram.compute(list(range(100)))
        source = NumericHistogram.compute(list(range(10_000, 10_100)))
        assert target.fit(source) == 0.0

    def test_constant_column(self):
        stat = NumericHistogram.compute([5, 5, 5])
        assert stat.lo == stat.hi == 5

    def test_non_finite_floats_are_skipped(self):
        stat = NumericHistogram.compute(
            [1.0, float("nan"), 3.0, float("inf"), float("-inf")]
        )
        assert (stat.lo, stat.hi, stat.count) == (1.0, 3.0, 2)


class TestValueRange:
    def test_bounds(self):
        stat = ValueRange.compute([3, 1, 7])
        assert (stat.lo, stat.hi) == (1, 7)

    def test_fit_contained(self):
        target = ValueRange.compute([0, 100])
        source = ValueRange.compute([10, 90])
        assert target.fit(source) == pytest.approx(1.0)

    def test_fit_disjoint(self):
        target = ValueRange.compute([0, 100])
        source = ValueRange.compute([1000, 2000])
        assert target.fit(source) == 0.0

    def test_fit_partial_overlap(self):
        target = ValueRange.compute([0, 100])
        source = ValueRange.compute([50, 150])
        assert 0.0 < target.fit(source) < 1.0

    @pytest.mark.parametrize(
        "source, target, share",
        [
            ((-1e308, 1e308), (0.0, 1e308), 0.5),
            ((-1.5e308, 1.5e308), (-1e307, 1e307), 2 / 30),
            ((-1e308, 1e308), (-1e308, 1e308), 1.0),
            ((-1e308, 1e308), (1.5e308, 1.7e308), 0.0),
        ],
    )
    def test_fit_of_a_range_wider_than_the_largest_float(
        self, source, target, share
    ):
        """The source's span overflows; its overlap share does not."""
        wide = ValueRange.compute(list(source))
        assert math.isinf(wide.hi - wide.lo)
        assert ValueRange.compute(list(target)).fit(wide) == pytest.approx(share)


class TestTopK:
    def test_discrete_domain_coverage(self):
        stat = TopKValues.compute(["rock", "jazz"] * 50)
        assert stat.coverage == pytest.approx(1.0)
        assert stat.importance() == pytest.approx(1.0)

    def test_free_text_low_importance(self):
        stat = TopKValues.compute([f"title {i}" for i in range(1000)])
        assert stat.importance() < 0.01

    def test_fit_shared_domain(self):
        target = TopKValues.compute(["rock", "jazz", "pop"] * 10)
        source = TopKValues.compute(["rock", "jazz"] * 10)
        assert target.fit(source) == pytest.approx(1.0)

    def test_fit_disjoint_domain(self):
        target = TopKValues.compute(["rock"] * 10)
        source = TopKValues.compute(["metal"] * 10)
        assert target.fit(source) == 0.0


# ----------------------------------------------------------------------
# Properties: every statistic keeps importance and fit within [0, 1]
# ----------------------------------------------------------------------

value_columns = st.lists(
    st.one_of(
        st.none(),
        st.integers(min_value=-10**6, max_value=10**6),
        st.text(max_size=20),
    ),
    max_size=60,
)

STATISTIC_TYPES = [
    Constancy,
    TextPatternStatistic,
    CharacterHistogram,
    StringLengthStatistic,
    MeanStatistic,
    NumericHistogram,
    ValueRange,
    TopKValues,
]


@settings(max_examples=60)
@given(value_columns, value_columns)
@example(  # regression: float rounding pushed the intersection over 1.0
    source_values=[-121, 216, 2071, "0001", "1345Á"],
    target_values=[-121, 216, 2071, "0001", "1345Á"],
)
@pytest.mark.parametrize("statistic_type", STATISTIC_TYPES)
def test_importance_and_fit_bounded(statistic_type, source_values, target_values):
    source = statistic_type.compute(source_values)
    target = statistic_type.compute(target_values)
    assert 0.0 <= target.importance() <= 1.0
    assert 0.0 <= target.fit(source) <= 1.0


@settings(max_examples=60)
@given(value_columns)
@example(values=[])  # regression: empty columns must fit vacuously
@example(values=[str(i) for i in range(30)])  # regression: top-k ties
@pytest.mark.parametrize("statistic_type", STATISTIC_TYPES)
def test_self_fit_is_high(statistic_type, values):
    """A column always fits its own statistics (≥ threshold-level)."""
    stat = statistic_type.compute(values)
    assert stat.fit(stat) >= 0.9


# ----------------------------------------------------------------------
# Counted statistics against the per-value reference
# ----------------------------------------------------------------------
#
# Each statistic computes from a ColumnSummary, which does per-value work
# once per distinct value and weights it by its count.  The functions
# below compute the same statistics value by value.  They are the
# reference the counted statistics must reproduce exactly: repr-equal,
# down to the sign of a zero and the type of a top-k value.


def reference_numeric_values(values):
    numeric = []
    for value in values:
        if value is None:
            continue
        if can_cast(value, DataType.FLOAT):
            numeric.append(float(cast(value, DataType.FLOAT)))
    return numeric


def reference_fill_status(values, datatype=DataType.STRING):
    nulls = 0
    uncastable = 0
    for value in values:
        if value is None:
            nulls += 1
        elif not can_cast(value, datatype):
            uncastable += 1
    return FillStatus(total=len(values), nulls=nulls, uncastable=uncastable)


def reference_constancy(values):
    non_null = [value for value in values if value is not None]
    total = len(non_null)
    counts = Counter(non_null)
    distinct = len(counts)
    if total <= 1 or distinct <= 1:
        return Constancy(constancy=1.0, distinct_count=distinct, total=total)
    frequencies = [count / total for count in counts.values()]
    entropy = shannon_entropy(frequencies)
    return Constancy(
        constancy=max(0.0, min(1.0, 1.0 - entropy / math.log2(total))),
        distinct_count=distinct,
        total=total,
    )


def _reference_distribution(counts):
    total = sum(counts.values())
    return tuple(
        sorted(
            ((key, count / total) for key, count in counts.items()),
            key=lambda item: (-item[1], item[0]),
        )
        if total
        else ()
    )


def reference_text_pattern(values):
    strings = [str(value) for value in values if value is not None]
    counts = Counter(extract_pattern(value) for value in strings)
    return TextPatternStatistic(distribution=_reference_distribution(counts))


def reference_char_histogram(values):
    counts = Counter()
    for value in values:
        if value is None:
            continue
        counts.update(str(value))
    return CharacterHistogram(distribution=_reference_distribution(counts))


def reference_string_length(values):
    lengths = [len(str(value)) for value in values if value is not None]
    if not lengths:
        return StringLengthStatistic(mean=0.0, std=0.0, count=0)
    mean = sum(lengths) / len(lengths)
    variance = sum((length - mean) ** 2 for length in lengths) / len(lengths)
    return StringLengthStatistic(
        mean=mean, std=math.sqrt(variance), count=len(lengths)
    )


def reference_mean(values):
    numeric = reference_numeric_values(values)
    if not numeric:
        return MeanStatistic(mean=0.0, std=0.0, count=0)
    mean = sum(numeric) / len(numeric)
    variance = sum((value - mean) ** 2 for value in numeric) / len(numeric)
    return MeanStatistic(mean=mean, std=math.sqrt(variance), count=len(numeric))


def reference_numeric_histogram(values):
    numeric = reference_numeric_values(values)
    if not numeric:
        return NumericHistogram(lo=0.0, hi=0.0, bins=(), count=0)
    lo, hi = min(numeric), max(numeric)
    counts = [0] * NumericHistogram.BIN_COUNT
    for value in numeric:
        counts[NumericHistogram._bin_index(value, lo, hi)] += 1
    total = len(numeric)
    return NumericHistogram(
        lo=lo, hi=hi, bins=tuple(count / total for count in counts), count=total
    )


def reference_value_range(values):
    numeric = reference_numeric_values(values)
    if not numeric:
        return ValueRange(lo=0.0, hi=0.0, count=0)
    return ValueRange(lo=min(numeric), hi=max(numeric), count=len(numeric))


def reference_top_k(values):
    non_null = [value for value in values if value is not None]
    counts = Counter(non_null)
    total = len(non_null)
    if not total:
        return TopKValues(entries=(), coverage=0.0, count=0)
    entries = tuple(
        sorted(
            ((value, count / total) for value, count in counts.most_common(10)),
            key=lambda item: (-item[1], str(item[0])),
        )
    )
    return TopKValues(
        entries=entries,
        coverage=max(0.0, min(1.0, sum(share for _, share in entries))),
        count=total,
    )


REFERENCES = {
    Constancy: reference_constancy,
    TextPatternStatistic: reference_text_pattern,
    CharacterHistogram: reference_char_histogram,
    StringLengthStatistic: reference_string_length,
    MeanStatistic: reference_mean,
    NumericHistogram: reference_numeric_histogram,
    ValueRange: reference_value_range,
    TopKValues: reference_top_k,
}


def outcome(function, *args):
    """The repr of ``function(*args)``, or the exception it raised."""
    try:
        return repr(function(*args))
    except Exception as exc:  # noqa: BLE001 - exceptions must match too
        return f"raises {type(exc).__name__}: {exc}"


#: Values that are equal yet differ in str() or cast, Unicode digits and
#: spaces, and strings some datatypes cannot cast.
TRICKY = [
    0, 0.0, -0.0, False, 1, 1.0, True, 2, 2.0, -1,
    "0", "1", "1.0", "true", "True", "-0.0",
    "²", "٣", "\x1c", "　", "4:43", "nan", "inf", " 12 ", "12", "",
    "2015-03-23", "x y", 10**400, float("nan"), float("inf"),
]
TRICKY_TEXT = [value for value in TRICKY if isinstance(value, str)]


def pooled(atoms):
    """Columns drawn from a small pool, so values repeat."""
    return st.lists(atoms, min_size=1, max_size=8).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), max_size=50)
    )


#: Unicode digits and spaces; the pattern separator, a literal ``_`` (the
#: space token), letters that look like tokens, an astral digit and
#: letter, and a lone surrogate.
short_text = st.text(
    alphabet=st.sampled_from(
        [*"09²٣ \x1c　:.,-+eaZé", "\x00", "_", "N", "A", "𝟘", "𝐀", "\ud800"]
    ),
    max_size=6,
)
atoms = st.one_of(
    st.none(),
    st.sampled_from(TRICKY),
    st.booleans(),
    st.integers(min_value=-(10**6), max_value=10**6),
    st.floats(width=16),
    short_text,
)
#: Mixed columns, and the single-type columns a typed instance holds.
columns = st.one_of(
    pooled(atoms),
    st.lists(atoms, max_size=30),
    pooled(st.one_of(st.none(), short_text, st.sampled_from(TRICKY_TEXT))),
    pooled(st.one_of(st.none(), st.integers(min_value=-50, max_value=50))),
    pooled(st.one_of(st.none(), st.floats(width=16, allow_nan=False))),
)


@settings(max_examples=400, deadline=None)
@given(columns)
@example(values=[0.0, -0.0, 0.0])
@example(values=[-0.0, 0, 0.0])
@example(values=[1, True, 1.0, "1", "True", "1.0"])
@example(values=[True, 1, 1.0, 2, 2.0])
@example(values=["4:43", "nan", " 12 ", "²", "٣", "\x1c", "　", None])
def test_counted_statistics_match_per_value_reference(values):
    shared = ColumnSummary(values)
    for statistic_type, reference in REFERENCES.items():
        expected = outcome(reference, values)
        assert outcome(statistic_type.compute, values) == expected
        assert outcome(statistic_type.compute, shared) == expected


@settings(max_examples=300, deadline=None)
@given(columns)
@example(values=[1, True, 1.0, "1", "true", 2.5, "2015-03-23"])
@example(values=[10**400, "1", None])
@pytest.mark.parametrize("datatype", list(DataType), ids=str)
def test_counted_fill_status_matches_per_value_reference(datatype, values):
    expected = outcome(reference_fill_status, values, datatype)
    assert outcome(FillStatus.compute, values, datatype) == expected
    assert outcome(FillStatus.compute, ColumnSummary(values), datatype) == expected


def reference_profile(database, relation_name, attribute_name, datatype):
    instance = database.table(relation_name)
    values = instance.column(attribute_name)
    return ColumnProfile(
        relation=relation_name,
        attribute=attribute_name,
        datatype=datatype,
        row_count=len(values),
        distinct_count=len(instance.distinct(attribute_name)),
        fill_status=reference_fill_status(values, datatype),
        constancy=reference_constancy(values),
        statistics={
            statistic_type.name: REFERENCES[statistic_type](values)
            for statistic_type in statistic_types_for(datatype)
        },
    )


@pytest.mark.parametrize(
    "build",
    [
        lambda: scenario_s1_s2(1),
        lambda: scenario_m1_d2(1),
        lambda: example_scenario(ExampleParameters(albums=1000)),
    ],
    ids=["s1-s2", "m1-d2", "example-1000"],
)
def test_column_profiles_match_per_value_reference(build):
    scenario = build()
    profiled = 0
    for database in (*scenario.sources, scenario.target):
        for relation in database.schema.relations:
            for attribute in relation.attributes:
                for datatype in DataType:
                    args = (database, relation.name, attribute.name, datatype)
                    assert repr(compute_column_profile(*args)) == repr(
                        reference_profile(*args)
                    )
                    profiled += 1
    assert profiled > 0


def test_deviations_add_in_row_order():
    """Squared deviations are computed per distinct value but summed in
    row order: on these columns another order gives other bits."""
    numbers = [0.1, 0.7, 0.1, 0.3, 0.7, 2.5, 0.1, 1e-3, 3.3, 0.2] * 3
    lengths = [1, 2, 2, 7, 1, 30, 3, 2, 11, 1, 5, 6, 9] * 3
    texts = ["a" * length for length in lengths]

    def deviation_sum(column):
        mean = sum(column) / len(column)
        return sum((x - mean) ** 2 for x in column)

    for column in (numbers, lengths):
        assert deviation_sum(column) != deviation_sum(sorted(column))
    assert repr(MeanStatistic.compute(numbers)) == repr(reference_mean(numbers))
    assert repr(StringLengthStatistic.compute(texts)) == repr(
        reference_string_length(texts)
    )


#: Columns whose range, sum or sum of squares overflows a float.
WIDE_NUMBERS = {
    "range": [-1e308, 1e308],
    "sum": [1e308, 1e308, 5.0],
    "ints": [-(10**308), 3, 10**308, None, "4:43"],
    "squares": [-1.3e154, 1.3e154],
    "extremes": [-1.7976931348623157e308, 1.7976931348623157e308, 0.0, 1e-300],
}


@pytest.mark.parametrize(
    "values", list(WIDE_NUMBERS.values()), ids=list(WIDE_NUMBERS)
)
@pytest.mark.parametrize(
    "statistic_type", [MeanStatistic, NumericHistogram, ValueRange]
)
def test_wide_finite_columns_get_finite_statistics(statistic_type, values):
    """A column whose range or sums overflow a float still gets finite
    statistics, which fit themselves."""
    stat = statistic_type.compute(values)
    fields = [
        value
        for value in dataclasses.astuple(stat)
        for value in (value if isinstance(value, tuple) else (value,))
    ]
    assert all(math.isfinite(field) for field in fields), stat
    assert stat.fit(stat) >= 0.9


def test_wide_column_statistics():
    mean = MeanStatistic.compute([-1e308, 1e308])
    assert (mean.mean, mean.std) == (0.0, 1e308)
    assert MeanStatistic.compute([1e308, 1e308]).std == 0.0
    histogram = NumericHistogram.compute([-1e308, 1e308, 1e308, 0.0])
    assert histogram.bins == (0.25, 0, 0, 0, 0, 0.25, 0, 0, 0, 0.5)


# ----------------------------------------------------------------------
# Metamorphic checks
# ----------------------------------------------------------------------


def repeat_invariants(values):
    fill = FillStatus.compute(values, DataType.INTEGER)
    value_range = ValueRange.compute(values)
    return (
        TextPatternStatistic.compute(values),
        CharacterHistogram.compute(values),
        TopKValues.compute(values).entries,
        (fill.filled_fraction, fill.non_null_fraction, fill.incompatible_fraction),
        (value_range.lo, value_range.hi),
        Constancy.compute(values).distinct_count,
    )


@settings(max_examples=150, deadline=None)
@given(columns, st.integers(min_value=2, max_value=5))
def test_repeating_every_row_changes_no_shape(values, k):
    repeated = [value for value in values for _ in range(k)]
    assert outcome(repeat_invariants, repeated) == outcome(
        repeat_invariants, values
    )


permuted_columns = columns.flatmap(
    lambda values: st.tuples(st.just(values), st.permutations(values))
)


@settings(max_examples=150, deadline=None)
@given(permuted_columns)
def test_row_order_changes_no_pattern_histogram_or_fill(pair):
    values, permuted = pair

    def shapes(column):
        return (
            TextPatternStatistic.compute(column),
            CharacterHistogram.compute(column),
            *(FillStatus.compute(column, datatype) for datatype in DataType),
        )

    assert outcome(shapes, permuted) == outcome(shapes, values)


# ----------------------------------------------------------------------
# The mechanism: per-value work runs once per distinct value
# ----------------------------------------------------------------------


def single_column_database(datatype, values):
    schema = Schema("db", relations=[relation("r", [("x", datatype)])])
    database = Database(schema)
    database.insert_all("r", [(value,) for value in values])
    return database


def test_extract_patterns_runs_once_on_the_distinct_texts(monkeypatch):
    distinct = ["4:43", "6:55", "A Title", "x-1", "", "٣ ²", "4:43 "]
    rng = random.Random(13)
    values = [rng.choice(distinct) for _ in range(500)]
    assert set(values) == set(distinct)
    calls = []
    real = statistics_module.extract_patterns

    def recorded(texts):
        calls.append(list(texts))
        return real(texts)

    monkeypatch.setattr(statistics_module, "extract_patterns", recorded)
    database = single_column_database(DataType.STRING, values)
    profile = compute_column_profile(database, "r", "x")
    patterned = [text for texts in calls for text in texts]
    assert sorted(patterned) == sorted(distinct)
    assert profile.statistic("text_pattern") == reference_text_pattern(values)


def test_numeric_casts_run_once_per_distinct_string(monkeypatch):
    """FillStatus, MeanStatistic, NumericHistogram and ValueRange share
    one cast of each distinct value."""
    from repro.relational import datatypes

    distinct = ["215900", "4:43", " 12 ", "3.5", "nan"]
    values = [distinct[i % len(distinct)] for i in range(300)]
    calls = []
    real = datatypes._PARSERS[DataType.FLOAT]

    def counted(value):
        calls.append(value)
        return real(value)

    monkeypatch.setitem(datatypes._PARSERS, DataType.FLOAT, counted)
    database = single_column_database(DataType.STRING, values)
    profile = compute_column_profile(database, "r", "x", DataType.FLOAT)
    # One cast of each distinct value serves the fill status and the
    # three numeric statistics.
    assert sorted(calls) == sorted(distinct)
    assert profile.statistic("mean") == reference_mean(values)
    assert profile.statistic("value_range") == reference_value_range(values)


@pytest.mark.parametrize(
    "values", [[10**309, 1, 2], [1, -(10**309), None, 2, 10**309]]
)
def test_int_beyond_float_range_is_no_float(values):
    """Such an int is uncastable to FLOAT and skipped by the numeric
    statistics, as NaN is, instead of raising OverflowError."""
    fill = FillStatus.compute(values, DataType.FLOAT)
    assert fill == reference_fill_status(values, DataType.FLOAT)
    assert fill.uncastable == sum(abs(v) > 10**308 for v in values if v)
    for statistic_type in (MeanStatistic, ValueRange, NumericHistogram):
        statistic = statistic_type.compute(values)
        assert repr(statistic) == repr(REFERENCES[statistic_type](values))
        assert statistic.count == 2


@pytest.mark.parametrize(
    "datatype, values",
    [
        (DataType.STRING, ["4:43", "x", "4:43", None, "", "٣ ²"] * 20),
        (DataType.INTEGER, [215900, 3, 3, None, -7, 0] * 20),
        (DataType.BOOLEAN, [True, None, False, True] * 20),
    ],
    ids=["str", "int", "bool"],
)
def test_native_columns_load_and_profile_without_casts(
    caster_calls, datatype, values
):
    """A column whose values already have its datatype's type is neither
    cast on insert nor against that datatype when profiled."""
    database = single_column_database(datatype, values)
    profile = compute_column_profile(database, "r", "x", datatype)
    assert not caster_calls
    assert repr(profile) == repr(reference_profile(database, "r", "x", datatype))


def test_profiling_casts_no_int_to_string(caster_calls, monkeypatch):
    """Every int below 10**640 has decimal text, so profiling the seed-5
    catalogue (both qualities, a fresh runtime each) casts no int to
    STRING; its other casts still run."""
    from repro import Runtime, default_efes
    from repro.core import ResultQuality
    from repro.relational import datatypes
    from repro.scenarios.catalogue import SCENARIO_BUILDERS

    counted = datatypes._PARSERS[DataType.STRING]
    ints = []

    def spy(value):
        if type(value) is int:
            ints.append(value)
        return counted(value)

    monkeypatch.setitem(datatypes._PARSERS, DataType.STRING, spy)
    for build in SCENARIO_BUILDERS.values():
        for quality in ResultQuality:
            default_efes(runtime=Runtime()).run(build(5), quality)
    assert ints == []
    assert caster_calls[DataType.FLOAT] and caster_calls[DataType.INTEGER]


def test_profiling_uncastable_texts_constructs_no_cast_error(monkeypatch):
    """A value that cannot be cast is refused by its parser without an
    exception: profiling 1,000 distinct page ranges against INTEGER (the
    fill status and the numeric statistics) constructs no TypeCastError."""
    from repro.relational.errors import TypeCastError

    built = []
    real_init = TypeCastError.__init__

    def counted(self, value, datatype):
        built.append(value)
        real_init(self, value, datatype)

    monkeypatch.setattr(TypeCastError, "__init__", counted)
    values = [f"{i}-{i + 17}" for i in range(1000)]
    database = single_column_database(DataType.STRING, values)
    profile = compute_column_profile(database, "r", "x", DataType.INTEGER)
    assert profile.fill_status.uncastable == 1000
    assert profile.statistic("mean").count == 0
    assert built == []
    with pytest.raises(TypeCastError):
        cast(values[0], DataType.INTEGER)
    assert built == [values[0]]  # the spy sees a raising cast


def test_wide_int_takes_its_hex_text_in_every_text_statistic():
    """A column holding an int too wide for decimal text gives it the text
    top-k ties on, hex; its other values keep ``str``."""
    wide = 10**5000
    values = [wide, 12, None, 12]
    summary = ColumnSummary(values)
    assert summary.texts == Counter({format(wide, "x"): 1, "12": 2})
    length = StringLengthStatistic.compute(values)
    assert length == reference_string_length([format(wide, "x"), 12, 12])
    assert ColumnSummary([10**400, 12]).text_of is str
    # A hex text can equal another int's decimal text: both count for it.
    hex_ones, decimal_ones = int("1" * 3600, 16), int("1" * 3600)
    assert is_wide_int(hex_ones) and not is_wide_int(decimal_ones)
    values = [hex_ones, decimal_ones, decimal_ones]
    assert ColumnSummary(values).texts == Counter({"1" * 3600: 3})
    length = StringLengthStatistic.compute(values)
    assert length == StringLengthStatistic(mean=3600.0, std=0.0, count=3)


def test_constancy_adds_entropy_terms_in_value_order():
    """Entropy terms are computed once per distinct count but added in
    the order of the values: on this column the counts' sorted order
    gives other bits."""
    values = [value for value in range(40) for _ in range(value % 7 + 1)]
    random.Random(5).shuffle(values)
    counts = Counter(values)
    total = len(values)
    terms = [c / total * math.log2(c / total) for c in counts.values()]
    assert -sum(terms) != -sum(sorted(terms))
    assert repr(Constancy.compute(values)) == repr(reference_constancy(values))
