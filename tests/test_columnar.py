"""Property tests for the typed-array column codec and the columnar
instance layout.

Two contracts underpin the content fingerprints and scenario documents:

* the codec is **lossless** — any column of post-cast values (None /
  bool / int / float / str, any mix, any width, any unicode) round-trips
  exactly through encode → decode, including via the base64 JSON form
  of scenario documents, and
* the row view and the column view of an instance are the **same data**
  — every profiling statistic computed from one equals the statistic
  computed from the other.
"""

import json
import math
import random
import struct
import sys
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.profiling import compute_column_profile
from repro.relational import Database, DataType, Schema, relation
from repro.relational.columnar import (
    ColumnBlock,
    ColumnCodecError,
    block_from_doc,
    block_to_doc,
    decode_column,
    encode_column,
)

#: Post-cast value universe: what RelationInstance columns actually hold.
column_values = st.lists(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(),  # unbounded — exercises the >64-bit object path
        st.floats(allow_nan=False),
        st.text(),  # full unicode, including astral + control chars
    ),
    max_size=60,
)


def typed_view(values):
    """Equality that distinguishes 1 / 1.0 / True (list == does not)."""
    return [(type(v).__name__, v) for v in values]


class TestCodecRoundTrip:
    @settings(max_examples=200)
    @given(column_values)
    def test_encode_decode_is_identity(self, values):
        block = encode_column(values)
        assert typed_view(decode_column(block)) == typed_view(values)

    @settings(max_examples=100)
    @given(column_values)
    def test_json_doc_form_round_trips(self, values):
        doc = json.loads(json.dumps(block_to_doc(encode_column(values))))
        assert typed_view(decode_column(block_from_doc(doc))) == typed_view(
            values
        )

    @settings(max_examples=100)
    @given(column_values)
    def test_canonical_bytes_deterministic(self, values):
        assert (
            encode_column(values).canonical_bytes()
            == encode_column(list(values)).canonical_bytes()
        )

    @settings(max_examples=100)
    @given(column_values, column_values)
    def test_distinct_values_distinct_bytes(self, first, second):
        if typed_view(first) == typed_view(second):
            return
        assert (
            encode_column(first).canonical_bytes()
            != encode_column(second).canonical_bytes()
        )

    def test_special_floats_round_trip(self):
        values = [float("inf"), float("-inf"), -0.0, 5e-324, 1.5]
        decoded = decode_column(encode_column(values))
        assert decoded == values
        assert math.copysign(1.0, decoded[2]) == -1.0
        nan_decoded = decode_column(encode_column([float("nan"), None]))
        assert math.isnan(nan_decoded[0]) and nan_decoded[1] is None


class TestCodecKinds:
    @pytest.mark.parametrize(
        "values, kind",
        [
            ([], "empty"),
            ([1, None, -(2**63)], "int64"),
            ([2**63], "object"),  # one past int64 → tagged object form
            ([0.5, None], "float64"),
            ([True, False, None], "bool"),
            (["a", "", None, "é\U0001f600"], "text"),
            ([1, "a"], "object"),
            ([True, 1], "object"),  # bool is not an int here
            ([None, None], "int64"),  # all-null: cheapest physical form
        ],
    )
    def test_classification(self, values, kind):
        block = encode_column(values)
        assert block.kind == kind
        assert typed_view(decode_column(block)) == typed_view(values)

    def test_numeric_lookalikes_encode_distinctly(self):
        # 1 == 1.0 == True in Python, but they are different typed
        # columns and must produce different canonical bytes — this is
        # what keeps ProfileCache keys honest about datatypes.
        variants = [[1], [1.0], [True]]
        blocks = [encode_column(v).canonical_bytes() for v in variants]
        assert len(set(blocks)) == len(variants)

    def test_int_past_the_text_digit_limit_encodes_the_same_at_any_limit(
        self,
    ):
        """An int of more than 4,300 digits encodes under its own tag,
        independently of the interpreter's int-to-text limit."""
        wide = 10**5000
        default = encode_column([1, wide]).canonical_bytes()
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            unlimited = encode_column([1, wide]).canonical_bytes()
        finally:
            sys.set_int_max_str_digits(limit)
        assert unlimited == default
        assert default != encode_column([1, wide + 1]).canonical_bytes()
        decoded = decode_column(encode_column([1, wide, -wide, None]))
        assert decoded == [1, wide, -wide, None]

    def test_unencodable_type_raises(self):
        with pytest.raises(ColumnCodecError):
            encode_column([object()])

    def test_corrupt_payload_raises(self):
        block = encode_column([1, 2, 3])
        clipped = block_from_doc(
            {
                "kind": block.kind,
                "count": block.count,
                "nulls": block_to_doc(block)["nulls"],
                "data": "",
            }
        )
        with pytest.raises(ColumnCodecError):
            decode_column(clipped)


# ----------------------------------------------------------------------
# The per-value encoder, kept as the reference for the column-at-a-time one
# ----------------------------------------------------------------------

_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1


def _reference_le(typed: array) -> bytes:
    if sys.byteorder != "little":
        typed = array(typed.typecode, typed)
        typed.byteswap()
    return typed.tobytes()


def _reference_pack_mask(values) -> bytes:
    mask = bytearray((len(values) + 7) // 8)
    for index, value in enumerate(values):
        if value is not None:
            mask[index >> 3] |= 1 << (index & 7)
    return bytes(mask)


def _reference_classify(values) -> str:
    if not values:
        return "empty"
    kinds: set[str] = set()
    for value in values:
        if value is None:
            continue
        if type(value) is bool:
            kinds.add("bool")
        elif type(value) is int:
            if _INT64_MIN <= value <= _INT64_MAX:
                kinds.add("int64")
            else:
                return "object"
        elif type(value) is float:
            kinds.add("float64")
        elif type(value) is str:
            kinds.add("text")
        else:
            return "object"
        if len(kinds) > 1:
            return "object"
    if not kinds:
        return "int64"
    return kinds.pop()


def _reference_encode_object(value) -> bytes:
    if type(value) is bool:
        return b"b" + (b"\x01" if value else b"\x00")
    if type(value) is int:
        text = str(value).encode("ascii")
        return b"i" + struct.pack("<q", len(text)) + text
    if type(value) is float:
        return b"f" + struct.pack("<d", value)
    if type(value) is str:
        blob = value.encode("utf-8")
        return b"s" + struct.pack("<q", len(blob)) + blob
    raise ColumnCodecError(f"unencodable value type: {type(value).__name__!r}")


def reference_encode_column(values) -> ColumnBlock:
    """The encoder as it was: one Python step per value."""
    values = list(values)
    kind = _reference_classify(values)
    mask = _reference_pack_mask(values)
    count = len(values)
    if kind == "empty":
        return ColumnBlock("empty", 0, b"", b"")
    if kind == "int64":
        typed = array("q", (0 if v is None else v for v in values))
        return ColumnBlock("int64", count, mask, _reference_le(typed))
    if kind == "float64":
        typed = array("d", (0.0 if v is None else v for v in values))
        return ColumnBlock("float64", count, mask, _reference_le(typed))
    if kind == "bool":
        payload = bytes(0 if v is None else (1 if v else 0) for v in values)
        return ColumnBlock("bool", count, mask, payload)
    if kind == "text":
        blobs = [b"" if v is None else v.encode("utf-8") for v in values]
        offsets = array("q")
        position = 0
        for blob in blobs:
            position += len(blob)
            offsets.append(position)
        return ColumnBlock(
            "text", count, mask, b"".join(blobs), _reference_le(offsets)
        )
    payload = b"".join(
        b"\x00" if v is None else _reference_encode_object(v) for v in values
    )
    return ColumnBlock("object", count, mask, payload)


def _nullable(values):
    return st.lists(st.none() | values, max_size=40)


#: Single-kind columns, so every typed encoding (not only ``object``)
#: meets the reference under generated data.
typed_columns = st.one_of(
    _nullable(st.integers(_INT64_MIN - 2, _INT64_MAX + 2)),
    _nullable(st.integers(-3, 3)),
    _nullable(st.floats()),
    _nullable(st.booleans()),
    _nullable(st.text()),
)


def _same_as_reference(values) -> None:
    assert (
        encode_column(values).canonical_bytes()
        == reference_encode_column(values).canonical_bytes()
    )


class TestEncoderReference:
    """The column-at-a-time encoder writes the reference's bytes."""

    @settings(max_examples=300)
    @given(column_values)
    def test_mixed_columns(self, values):
        _same_as_reference(values)

    @settings(max_examples=300)
    @given(typed_columns)
    def test_typed_columns(self, values):
        _same_as_reference(values)

    @pytest.mark.parametrize(
        "bound", [_INT64_MIN - 1, _INT64_MIN, _INT64_MIN + 1,
                  _INT64_MAX - 1, _INT64_MAX, _INT64_MAX + 1],
    )
    def test_int64_bounds(self, bound):
        for values in ([bound], [0, bound], [bound, None], [None, 1, bound]):
            _same_as_reference(values)

    @pytest.mark.parametrize("count", range(18))
    def test_mask_byte_boundaries(self, count):
        columns = [
            [None] * count,
            list(range(count)),
            [None if i % 3 == 0 else i for i in range(count)],
            [None if i % 8 == 7 else float(i) for i in range(count)],
            [None if i == count - 1 else "v" for i in range(count)],
            [i % 2 == 0 for i in range(count)],
            [None if i % 2 else True for i in range(count)],
        ]
        for values in columns:
            _same_as_reference(values)

    def test_text_edge_cases(self):
        for values in (
            ["é", "ß", "中文", None, ""],
            ["\U0001f600", "\U00010348", None, "a\U0001d11eb"],
            ["\x00", "\n", "\ufeff"],
        ):
            _same_as_reference(values)

    @pytest.mark.parametrize(
        "values", [["a", "\ud800"], [None, "\udfff"], [1, "\ud800"]]
    )
    def test_lone_surrogate_raises_like_reference(self, values):
        with pytest.raises(UnicodeEncodeError):
            reference_encode_column(values)
        with pytest.raises(UnicodeEncodeError):
            encode_column(values)


def seeded_database(seed: int) -> Database:
    rng = random.Random(seed)
    datatypes = [
        DataType.INTEGER,
        DataType.STRING,
        DataType.FLOAT,
        DataType.BOOLEAN,
    ]
    relations = []
    for index in range(rng.randint(1, 3)):
        attributes = [
            (f"a{position}", rng.choice(datatypes))
            for position in range(rng.randint(1, 4))
        ]
        relations.append(relation(f"r{index}", attributes))
    schema = Schema(f"cols{seed}", relations=relations)
    database = Database(schema)
    for rel in schema.relations:
        for _ in range(rng.randint(0, 30)):
            row = []
            for attribute in rel.attributes:
                if rng.random() < 0.2:
                    row.append(None)
                elif attribute.datatype is DataType.INTEGER:
                    row.append(rng.randint(-5, 5))
                elif attribute.datatype is DataType.FLOAT:
                    row.append(round(rng.uniform(-2, 2), 3))
                elif attribute.datatype is DataType.BOOLEAN:
                    row.append(rng.random() < 0.5)
                else:
                    row.append(rng.choice(["x", "yy", "z 3", "émile", ""]))
            database.insert(rel.name, row)
    return database


class TestRowColumnAgreement:
    """The row view and column view describe the same tuples."""

    @pytest.mark.parametrize("seed", range(10))
    def test_views_are_transposes(self, seed):
        database = seeded_database(seed)
        for rel in database.schema.relations:
            instance = database.table(rel.name)
            rows = instance.rows
            for position, name in enumerate(rel.attribute_names):
                assert instance.column(name) == [
                    row[position] for row in rows
                ]

    @pytest.mark.parametrize("seed", range(10))
    def test_statistics_agree_across_views(self, seed):
        # Rebuild each relation from its *row* view and require every
        # profiling statistic to match the column-stored original.
        database = seeded_database(seed)
        rebuilt = Database(database.schema)
        for rel in database.schema.relations:
            for row in database.table(rel.name).rows:
                rebuilt.insert(rel.name, row)
        for rel in database.schema.relations:
            for attribute in rel.attributes:
                original = compute_column_profile(
                    database, rel.name, attribute.name
                )
                from_rows = compute_column_profile(
                    rebuilt, rel.name, attribute.name
                )
                assert original == from_rows

    @pytest.mark.parametrize("seed", range(10))
    def test_encoded_columns_round_trip_instances(self, seed):
        database = seeded_database(seed)
        for rel in database.schema.relations:
            instance = database.table(rel.name)
            decoded = [
                decode_column(block)
                for block in instance.encoded_columns()
            ]
            assert decoded == instance.columns()

    def test_mutation_invalidates_encoded_memo(self):
        schema = Schema(
            "m", relations=[relation("t", [("v", DataType.INTEGER)])]
        )
        database = Database(schema)
        database.insert("t", (1,))
        instance = database.table("t")
        before = instance.encoded_columns()[0].canonical_bytes()
        assert instance.encoded_columns()[0].canonical_bytes() == before
        database.insert("t", (2,))
        assert instance.encoded_columns()[0].canonical_bytes() != before
