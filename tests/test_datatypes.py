"""Unit tests for repro.relational.datatypes."""

import enum

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.relational import RelationInstance, relation
from repro.relational.datatypes import (
    DataType,
    can_cast,
    cast,
    cast_column,
    infer_datatype,
    try_cast_column,
)
from repro.relational.errors import TypeCastError

NON_FINITE = [float("nan"), float("inf"), float("-inf")]


class TestCastInteger:
    def test_int_passthrough(self):
        assert cast(7, DataType.INTEGER) == 7

    def test_string_parses(self):
        assert cast(" 42 ", DataType.INTEGER) == 42

    def test_negative_string(self):
        assert cast("-13", DataType.INTEGER) == -13

    def test_whole_float_converts(self):
        assert cast(3.0, DataType.INTEGER) == 3

    def test_fractional_float_fails(self):
        with pytest.raises(TypeCastError):
            cast(3.5, DataType.INTEGER)

    def test_text_fails(self):
        with pytest.raises(TypeCastError):
            cast("4:43", DataType.INTEGER)

    def test_bool_converts(self):
        assert cast(True, DataType.INTEGER) == 1


class TestCastFloat:
    def test_string_parses(self):
        assert cast("2.5", DataType.FLOAT) == 2.5

    def test_int_converts(self):
        assert cast(3, DataType.FLOAT) == 3.0

    def test_infinity_rejected(self):
        with pytest.raises(TypeCastError):
            cast("inf", DataType.FLOAT)

    def test_nan_rejected(self):
        with pytest.raises(TypeCastError):
            cast("nan", DataType.FLOAT)

    @pytest.mark.parametrize("value", NON_FINITE, ids=repr)
    def test_non_finite_float_rejected(self, value):
        with pytest.raises(TypeCastError):
            cast(value, DataType.FLOAT)

    @pytest.mark.parametrize(
        "value",
        [10**309, -(10**309), 2**1024],
        ids=["10**309", "-10**309", "2**1024"],
    )
    def test_int_beyond_float_range_rejected(self, value):
        with pytest.raises(TypeCastError):
            cast(value, DataType.FLOAT)
        assert not can_cast(value, DataType.FLOAT)
        assert try_cast_column([value, 1], DataType.FLOAT) == [None, 1.0]

    def test_largest_int_below_float_range_converts(self):
        assert cast(2**1023, DataType.FLOAT) == 2.0**1023

    @pytest.mark.parametrize("value", NON_FINITE, ids=repr)
    def test_non_finite_float_cannot_enter_a_float_column(self, value):
        instance = RelationInstance(relation("r", [("x", DataType.FLOAT)]))
        with pytest.raises(TypeCastError):
            instance.insert((value,))
        assert len(instance) == 0


class TestCastString:
    def test_passthrough(self):
        assert cast("abc", DataType.STRING) == "abc"

    def test_integer_renders(self):
        assert cast(215900, DataType.STRING) == "215900"

    def test_bool_renders(self):
        assert cast(False, DataType.STRING) == "false"


#: Past the interpreter's default int-to-text limit of 4,300 digits.
HUGE_INT = 10**5000


class TestIntBeyondDigitLimit:
    @pytest.mark.parametrize(
        "datatype",
        [DataType.FLOAT, DataType.STRING, DataType.BOOLEAN, DataType.DATE],
        ids=str,
    )
    def test_refused_with_a_short_message(self, datatype):
        assert not can_cast(HUGE_INT, datatype)
        with pytest.raises(TypeCastError) as excinfo:
            cast(HUGE_INT, datatype)
        assert str(excinfo.value) == (
            f"cannot cast an int of 16610 bits to {datatype}"
        )

    def test_integer_keeps_it(self):
        assert can_cast(HUGE_INT, DataType.INTEGER)
        assert cast(HUGE_INT, DataType.INTEGER) is HUGE_INT

    def test_float_column_nulls_it(self):
        assert try_cast_column([1, HUGE_INT], DataType.FLOAT) == [1.0, None]

    def test_only_ints_too_wide_to_quote_are_named_by_width(self):
        assert str(TypeCastError(2**256 - 1, DataType.DATE)) == (
            f"cannot cast {2**256 - 1} to date"
        )
        assert str(TypeCastError(2**256, DataType.DATE)) == (
            "cannot cast an int of 257 bits to date"
        )


class TestCastBoolean:
    @pytest.mark.parametrize("literal", ["true", "T", "yes", "1", "Y"])
    def test_truthy_literals(self, literal):
        assert cast(literal, DataType.BOOLEAN) is True

    @pytest.mark.parametrize("literal", ["false", "F", "no", "0", "N"])
    def test_falsy_literals(self, literal):
        assert cast(literal, DataType.BOOLEAN) is False

    def test_other_string_fails(self):
        with pytest.raises(TypeCastError):
            cast("maybe", DataType.BOOLEAN)

    def test_out_of_range_int_fails(self):
        with pytest.raises(TypeCastError):
            cast(2, DataType.BOOLEAN)


class TestCastDate:
    def test_iso_date(self):
        assert cast("1999-12-31", DataType.DATE) == "1999-12-31"

    def test_bad_month_fails(self):
        with pytest.raises(TypeCastError):
            cast("1999-13-01", DataType.DATE)

    def test_non_date_fails(self):
        with pytest.raises(TypeCastError):
            cast("yesterday", DataType.DATE)

    def test_non_ascii_digits_are_refused_not_raised(self):
        # "²³".isdigit() holds, but int("²³") raises ValueError.
        assert not can_cast("2015-²³-01", DataType.DATE)
        with pytest.raises(TypeCastError):
            cast("2015-²³-01", DataType.DATE)
        assert infer_datatype(["2015-²³-01"]) == DataType.STRING


class TestNullHandling:
    @pytest.mark.parametrize("datatype", list(DataType))
    def test_null_passes_through(self, datatype):
        assert cast(None, datatype) is None

    @pytest.mark.parametrize("datatype", list(DataType))
    def test_null_is_castable(self, datatype):
        assert can_cast(None, datatype)


class TestInferDatatype:
    def test_integers(self):
        assert infer_datatype(["1", "2", "3"]) == DataType.INTEGER

    def test_floats(self):
        assert infer_datatype(["1.5", "2"]) == DataType.FLOAT

    def test_booleans(self):
        assert infer_datatype(["true", "false"]) == DataType.BOOLEAN

    def test_dates(self):
        assert infer_datatype(["2001-01-01", "1999-06-15"]) == DataType.DATE

    def test_mixed_falls_back_to_string(self):
        assert infer_datatype(["1", "two"]) == DataType.STRING

    def test_nulls_ignored(self):
        assert infer_datatype([None, "7", None]) == DataType.INTEGER

    def test_empty_defaults_to_string(self):
        assert infer_datatype([]) == DataType.STRING

    def test_all_null_defaults_to_string(self):
        assert infer_datatype([None, None]) == DataType.STRING


class TestDataTypeProperties:
    def test_numeric_flags(self):
        assert DataType.INTEGER.is_numeric
        assert DataType.FLOAT.is_numeric
        assert not DataType.STRING.is_numeric

    def test_textual_flags(self):
        assert DataType.STRING.is_textual
        assert DataType.DATE.is_textual
        assert not DataType.INTEGER.is_textual


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


class Name(str):
    """A ``str`` subclass: STRING keeps it as it is, not as a ``str``."""


def _outcome(function, values, datatype):
    """Each result value with its type, or the exception raised."""
    try:
        result = function(values, datatype)
    except Exception as exc:  # noqa: BLE001 - exceptions must match too
        return ("raises", type(exc), str(exc))
    assert result is not values
    return [(type(value), repr(value)) for value in result]


def _reference_cast_column(values, datatype):
    return [cast(value, datatype) for value in values]


_atoms = [
    st.integers(-(10**6), 10**6),
    st.booleans(),
    st.floats(width=16),
    st.text(max_size=4),
    st.sampled_from(list(Level)),
    st.text(max_size=4).map(Name),
    st.sampled_from(
        ["1999-12-31", " 2015-03-23 ", "2000-13-01", "2015-²³-01"]
        + ["２０１５-03-23"]  # fullwidth digits
    ),
    st.just(10**309),
]
#: Single-type columns with NULLs, as typed instances hold, and mixed ones.
_columns = st.one_of(
    *(st.lists(st.one_of(st.none(), atom), max_size=12) for atom in _atoms),
    st.lists(st.one_of(st.none(), *_atoms), max_size=12),
)


@settings(max_examples=300, deadline=None)
@given(_columns)
@example(values=[1, True, None, False])
@example(values=[Level.LOW, 2, None])
@example(values=[Name("a"), "b"])
@example(values=[1.5, float("nan")])
@example(values=[2, float("inf")])
@example(values=[-(10**309), 3])
@example(values=["2015-03-23", "2015-²³-01"])
@example(values=[])
@example(values=[None, None])
@pytest.mark.parametrize("datatype", list(DataType), ids=str)
def test_cast_column_equals_casting_each_value(datatype, values):
    expected = _outcome(_reference_cast_column, values, datatype)
    assert _outcome(cast_column, values, datatype) == expected
    assert _outcome(cast_column, tuple(values), datatype) == expected
