"""Unit tests for repro.relational.instance and database."""

from collections import OrderedDict
from types import MappingProxyType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relational import (
    Database,
    DataType,
    InstanceError,
    TypeCastError,
    NotNull,
    RelationInstance,
    Schema,
    primary_key,
    relation,
)


@pytest.fixture
def database():
    schema = Schema(
        "db",
        relations=[
            relation(
                "songs",
                [
                    ("id", DataType.INTEGER),
                    ("name", DataType.STRING),
                    ("length", DataType.INTEGER),
                ],
            )
        ],
        constraints=[primary_key("songs", "id"), NotNull("songs", "name")],
    )
    return Database(schema)


class TestInsert:
    def test_positional_insert(self, database):
        database.insert("songs", (1, "Song A", 215900))
        assert len(database.table("songs")) == 1

    def test_mapping_insert(self, database):
        database.insert("songs", {"id": 2, "name": "Song B"})
        row = database.table("songs").rows[0]
        assert row == (2, "Song B", None)

    def test_values_are_cast(self, database):
        database.insert("songs", ("3", "Song C", "100"))
        assert database.table("songs").rows[0] == (3, "Song C", 100)

    def test_arity_mismatch_rejected(self, database):
        with pytest.raises(InstanceError):
            database.insert("songs", (1, "X"))

    def test_unknown_mapping_key_rejected(self, database):
        with pytest.raises(InstanceError):
            database.insert("songs", {"id": 1, "name": "X", "oops": 2})

    def test_insert_all(self, database):
        database.insert_all("songs", [(1, "A", 10), (2, "B", 20)])
        assert len(database.table("songs")) == 2


#: One attribute per datatype, each fed values that are already typed,
#: values that need a cast, and NULLs.
TYPED = relation(
    "typed",
    [
        ("i", DataType.INTEGER),
        ("f", DataType.FLOAT),
        ("s", DataType.STRING),
        ("b", DataType.BOOLEAN),
        ("d", DataType.DATE),
    ],
)
_finite = st.floats(allow_nan=False, allow_infinity=False)
_small = st.integers(-1000, 1000)
CASTABLE = {
    "i": st.one_of(
        _small,
        st.booleans(),
        _small.map(float),
        _small.map(lambda n: f" {n} "),
    ),
    "f": st.one_of(_finite, _small, _finite.map(repr)),
    "s": st.one_of(st.text(max_size=5), _small, _finite, st.booleans()),
    "b": st.one_of(
        st.booleans(), st.sampled_from([0, 1, "yes", " F ", "true", "0"])
    ),
    "d": st.sampled_from(["1999-12-31", " 2015-03-23 ", "2000-01-01"]),
}
#: A value each attribute's datatype refuses.
UNCASTABLE = {
    "i": "1.5",
    "f": "nan",
    "s": [1],
    "b": 2,
    "d": "2015-²³-01",
}


@st.composite
def _rows(draw):
    """A row as a name→value mapping (some names left out) or a list."""
    values = {
        name: draw(st.one_of(st.none(), CASTABLE[name]))
        for name in TYPED.attribute_names
    }
    if draw(st.booleans()):
        return [values[name] for name in TYPED.attribute_names]
    kept = draw(st.sets(st.sampled_from(TYPED.attribute_names)))
    return {name: values[name] for name in sorted(kept)}


@st.composite
def _bad_rows(draw):
    """A row ``insert`` refuses, and the exception it raises."""
    row = draw(_rows())
    fault = draw(st.sampled_from(["unknown", "arity", "cast"]))
    if fault == "unknown":
        return {"nope": 1}, InstanceError
    if fault == "arity":
        return [None] * draw(st.sampled_from([0, 4, 6])), InstanceError
    name = draw(st.sampled_from(TYPED.attribute_names))
    if isinstance(row, dict):
        row[name] = UNCASTABLE[name]
    else:
        row[TYPED.attribute_names.index(name)] = UNCASTABLE[name]
    return row, TypeCastError


def _content(instance):
    """Columns with each value's type, so 1, 1.0 and True differ."""
    return [
        [(type(value), value) for value in column]
        for column in instance.columns()
    ], len(instance)


class TestInsertAll:
    """``insert_all`` is repeated ``insert`` made all or nothing."""

    @settings(max_examples=150, deadline=None)
    @given(st.lists(_rows(), max_size=8))
    def test_equals_repeated_insert(self, rows):
        batch, single = RelationInstance(TYPED), RelationInstance(TYPED)
        batch.insert_all(rows)
        for row in rows:
            single.insert(row)
        assert _content(batch) == _content(single)
        assert batch.rows == single.rows
        assert batch.version == (1 if rows else 0)

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(_rows(), max_size=4),
        st.lists(_rows(), max_size=6),
        _bad_rows(),
        st.data(),
    )
    def test_a_refused_row_inserts_nothing(self, loaded, rows, bad, data):
        bad_row, error = bad
        position = data.draw(st.integers(0, len(rows)))
        batch_rows = rows[:position] + [bad_row] + rows[position:]
        batch = RelationInstance(TYPED, loaded)
        before, version = _content(batch), batch.version
        with pytest.raises(error):
            batch.insert_all(batch_rows)
        assert _content(batch) == before
        assert batch.version == version
        single = RelationInstance(TYPED, loaded)
        for row in rows[:position]:
            single.insert(row)
        before, version = _content(single), single.version
        with pytest.raises(error):
            single.insert(bad_row)
        assert _content(single) == before
        assert single.version == version

    def test_zero_attribute_relation_counts_rows(self):
        empty = relation("empty", [])
        instance = RelationInstance(empty, [(), {}])
        instance.insert(())
        assert len(instance) == 3
        assert instance.columns() == []


@st.composite
def _dict_rows(draw):
    """A row as a plain ``dict``, the form the scenario generators load."""
    row = draw(_rows())
    if isinstance(row, dict):
        return row
    return dict(zip(TYPED.attribute_names, row))


@st.composite
def _any_form_rows(draw):
    """A row as a ``dict``, an ``OrderedDict``, a ``MappingProxyType``, a
    list or a tuple."""
    row = draw(_rows())
    if isinstance(row, dict):
        form = draw(st.sampled_from([dict, OrderedDict, MappingProxyType]))
    else:
        form = draw(st.sampled_from([list, tuple]))
    return form(row)


class TestDictBatches:
    """A batch of plain dicts is gathered a column at a time; every other
    batch row by row.  Both are repeated ``insert`` made all or nothing."""

    @settings(max_examples=150, deadline=None)
    @given(st.lists(_dict_rows(), max_size=8))
    def test_dict_batch_equals_repeated_insert(self, rows):
        batch, single = RelationInstance(TYPED), RelationInstance(TYPED)
        batch.insert_all(rows)
        for row in rows:
            single.insert(row)
        assert _content(batch) == _content(single)
        assert batch.version == (1 if rows else 0)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(_any_form_rows(), max_size=8))
    def test_mixed_row_forms_equal_repeated_insert(self, rows):
        batch, single = RelationInstance(TYPED), RelationInstance(TYPED)
        batch.insert_all(iter(rows))
        for row in rows:
            single.insert(row)
        assert _content(batch) == _content(single)
        assert batch.version == (1 if rows else 0)

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(_dict_rows(), max_size=4),
        st.lists(_dict_rows(), max_size=6),
        st.sampled_from([{"nope": 1}, {"i": 1, "oops": None}]),
        st.data(),
    )
    def test_unknown_attribute_anywhere_inserts_nothing(
        self, loaded, rows, bad_row, data
    ):
        position = data.draw(st.integers(0, len(rows)))
        batch = RelationInstance(TYPED, loaded)
        before, version = _content(batch), batch.version
        with pytest.raises(InstanceError, match="unknown attributes"):
            batch.insert_all(rows[:position] + [bad_row] + rows[position:])
        assert _content(batch) == before
        assert batch.version == version

    def test_refused_dict_batch_names_the_first_bad_row(self):
        instance = RelationInstance(TYPED)
        with pytest.raises(InstanceError, match=r"\['oops'\]"):
            instance.insert_all([{"i": 1}, {"oops": 2}, {"nope": 3}])


class TestColumnAccess:
    @pytest.fixture(autouse=True)
    def rows(self, database):
        database.insert_all(
            "songs", [(1, "A", 10), (2, "B", None), (3, "A", 30)]
        )

    def test_column(self, database):
        assert database.table("songs").column("length") == [10, None, 30]

    def test_distinct_skips_nulls(self, database):
        assert database.table("songs").distinct("length") == {10, 30}

    def test_distinct_deduplicates(self, database):
        assert database.table("songs").distinct("name") == {"A", "B"}

    def test_dicts(self, database):
        first = next(database.table("songs").dicts())
        assert first == {"id": 1, "name": "A", "length": 10}


class TestMutation:
    @pytest.fixture(autouse=True)
    def rows(self, database):
        database.insert_all(
            "songs", [(1, "A", 10), (2, "B", 20), (3, "C", 30)]
        )

    def test_delete_where(self, database):
        deleted = database.table("songs").delete_where(
            lambda row: row["length"] > 15
        )
        assert deleted == 2
        assert len(database.table("songs")) == 1

    def test_update_where(self, database):
        updated = database.table("songs").update_where(
            lambda row: row["id"] == 2, {"length": 99}
        )
        assert updated == 1
        assert database.table("songs").column("length") == [10, 99, 30]

    def test_map_column(self, database):
        changed = database.table("songs").map_column(
            "length", lambda value: value * 2
        )
        assert changed == 3
        assert database.table("songs").column("length") == [20, 40, 60]

    def test_map_column_skips_nulls(self, database):
        database.insert("songs", (4, "D", None))
        changed = database.table("songs").map_column(
            "length", lambda value: value + 1
        )
        assert changed == 3  # the NULL row is untouched


class TestDatabase:
    def test_copy_is_deep(self, database):
        database.insert("songs", (1, "A", 10))
        clone = database.copy()
        clone.insert("songs", (2, "B", 20))
        assert len(database.table("songs")) == 1
        assert len(clone.table("songs")) == 2

    def test_total_rows(self, database):
        database.insert_all("songs", [(1, "A", 1), (2, "B", 2)])
        assert database.total_rows() == 2

    def test_instance_must_match_schema(self, database):
        from repro.relational import DatabaseInstance

        other_schema = Schema("other", relations=[relation("r", ["a"])])
        with pytest.raises(ValueError):
            Database(database.schema, DatabaseInstance(other_schema))
