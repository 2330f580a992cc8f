"""Typed-array column encoding: the canonical byte form of relation data.

The relational substrate stores instances column-major
(:class:`~repro.relational.instance.RelationInstance`); this module turns
one column of Python values into a compact, *canonical* block of stdlib
typed arrays: an :mod:`array` payload plus a null bitmask.  Content
fingerprints (:mod:`repro.runtime.cache`) hash
:meth:`ColumnBlock.canonical_bytes`, and the service keys its jobs and
its report store by those fingerprints, so a digest depends only on the
typed values themselves: never on ``repr`` formatting, row order of dict
iteration, or which process produced them.  The encoding is one-way:
nothing decodes a block.

Encoding kinds (chosen per column, most specific first):

===========  ==========================================================
``empty``    zero rows; no payload
``int64``    every non-null is an ``int`` (not ``bool``) fitting 64 bits
             → ``array('q')``, nulls as zero-filled slots + mask
``float64``  every non-null is a ``float`` → ``array('d')``
``bool``     every non-null is a ``bool`` → one byte per value
``text``     every non-null is a ``str`` → UTF-8 blob + ``array('q')``
             end-offsets
``object``   anything else (mixed types, oversized ints) → per-value
             tag + length-prefixed payload; an int too wide for decimal
             text (:func:`is_wide_int`) is tagged ``x`` and written in hex
===========  ==========================================================

All multi-byte integers are little-endian regardless of host byte order,
so canonical bytes (and with them every fingerprint) are stable across
machines.

:func:`encode_column` works a column at a time, since the service
fingerprints every column of a never-seen scenario to key its job (an
assessment fingerprints a database only to tell it from another whose
content hashes alike).  The kind comes from the set of the values'
exact types (plus one ``min`` and ``max`` for the int64 range); a
column without nulls gets an all-ones mask, and a nullable one packs
its 0/1 presence bytes through one base-2 ``int``; payloads are one
``array`` (or ``bytes``) call over the column, and text is
``map(str.encode)`` with offsets from ``itertools.accumulate``.
Only ``object`` columns, and the null fills of nullable typed ones, take
one Python step per value.  The bytes are those of the per-value encoder
this replaced (``tests/test_columnar.py`` keeps it as the reference).
"""

from __future__ import annotations

import dataclasses
import operator
import struct
import sys
from array import array
from collections.abc import Sequence
from itertools import accumulate, compress, repeat

__all__ = ["ColumnBlock", "ColumnCodecError", "encode_column", "is_wide_int"]

_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1
_NONE_TYPE = type(None)

#: The smallest magnitude of more than 4,300 decimal digits, the
#: interpreter's default int-to-text limit.
_WIDE_INT = 10**4300

_LITTLE = sys.byteorder == "little"

#: Presence bytes (0/1 per row) to the ASCII digits of a base-2 literal.
_BIT_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


class ColumnCodecError(ValueError):
    """A column holds a value the encoding cannot represent."""


def _le(typed: array) -> bytes:
    """The array's bytes in little-endian order, canonically."""
    if not _LITTLE:
        typed = array(typed.typecode, typed)
        typed.byteswap()
    return typed.tobytes()


def _pack_mask(present: bytes) -> bytes:
    """One bit per row, LSB-first within each byte; 1 = value present.

    ``present`` holds one 0/1 byte per row.  Reversed as ``0``/``1``
    digits it is the mask's little-endian integer in base 2, which
    ``int`` parses in linear time and without the digit limit that
    guards the other bases.
    """
    digits = present.translate(_BIT_DIGITS)[::-1]
    return int(digits, 2).to_bytes((len(present) + 7) // 8, "little")


def _full_mask(count: int) -> bytes:
    """The mask of ``count`` rows that are all present."""
    full, tail = divmod(count, 8)
    return b"\xff" * full + (bytes(((1 << tail) - 1,)) if tail else b"")


@dataclasses.dataclass(frozen=True)
class ColumnBlock:
    """One encoded column: kind + row count + null mask + payload.

    ``aux`` carries kind-specific framing (the end-offset array of
    ``text`` blocks); it is empty for fixed-width kinds.
    """

    kind: str
    count: int
    null_mask: bytes
    payload: bytes
    aux: bytes = b""

    def canonical_bytes(self) -> bytes:
        """A self-delimiting byte string; equal values ⇒ equal bytes.

        Every variable-length section is length-prefixed, so no value can
        forge a boundary (the weakness of separator-joined ``repr``
        hashing this encoding replaced).
        """
        return b"".join(
            (
                self.kind.encode("ascii"),
                struct.pack("<qqqq", self.count, len(self.null_mask),
                            len(self.aux), len(self.payload)),
                self.null_mask,
                self.aux,
                self.payload,
            )
        )


_KIND_OF_TYPE = {bool: "bool", int: "int64", float: "float64", str: "text"}

#: What a null row holds in the payload of a typed kind (``bool`` rows
#: hold ``bool(None)``, a zero byte).
_NULL_FILL = {"int64": 0, "float64": 0.0, "text": ""}


def _classify(types: set[type], present: Sequence[object]) -> str:
    """The kind of a non-empty column from the exact types of its
    non-null values, and those values for the int64 range check."""
    if not types:
        # All-null column: int64 with an all-zero mask is the cheapest.
        return "int64"
    if len(types) > 1:
        return "object"
    kind = _KIND_OF_TYPE.get(next(iter(types)), "object")
    if kind == "int64" and (
        min(present) < _INT64_MIN or max(present) > _INT64_MAX
    ):
        return "object"
    return kind


def is_wide_int(value: object) -> bool:
    """Whether ``value`` is an int too wide for decimal text.

    The bound is fixed rather than read from the interpreter (or found
    by catching ``str``'s ``ValueError``), so neither an encoding nor a
    sort order depends on ``sys.set_int_max_str_digits``.
    """
    return type(value) is int and abs(value) >= _WIDE_INT


def _encode_object(value: object) -> bytes:
    """Tag + length-prefixed payload for one heterogeneous value."""
    if type(value) is bool:
        return b"b" + (b"\x01" if value else b"\x00")
    if type(value) is int:
        if is_wide_int(value):
            tag, text = b"x", format(value, "x").encode("ascii")
        else:
            tag, text = b"i", str(value).encode("ascii")
        return tag + struct.pack("<q", len(text)) + text
    if type(value) is float:
        return b"f" + struct.pack("<d", value)
    if type(value) is str:
        blob = value.encode("utf-8")
        return b"s" + struct.pack("<q", len(blob)) + blob
    raise ColumnCodecError(
        f"unencodable value type: {type(value).__name__!r} "
        "(columns hold None/bool/int/float/str after datatype casting)"
    )


def encode_column(values: Sequence[object]) -> ColumnBlock:
    """Encode one column of typed values into its canonical block.

    Every step is a whole-column operation (type set, ``min``/``max``,
    mask packing, ``array`` construction, ``map`` and ``accumulate``);
    only ``object`` columns, and the null fills of typed ones, visit
    values one at a time in Python.
    """
    values = list(values)
    count = len(values)
    if not count:
        return ColumnBlock("empty", 0, b"", b"")
    types = set(map(type, values))
    if _NONE_TYPE in types:
        types.discard(_NONE_TYPE)
        flags = bytes(map(operator.is_not, values, repeat(None)))
        kind = _classify(types, list(compress(values, flags)))
        mask = _pack_mask(flags)
        fill = _NULL_FILL.get(kind)
        filled = values if fill is None else [
            fill if value is None else value for value in values
        ]
    else:
        kind = _classify(types, values)
        mask = _full_mask(count)
        filled = values
    if kind == "int64":
        return ColumnBlock("int64", count, mask, _le(array("q", filled)))
    if kind == "float64":
        return ColumnBlock("float64", count, mask, _le(array("d", filled)))
    if kind == "bool":
        return ColumnBlock("bool", count, mask, bytes(map(bool, values)))
    if kind == "text":
        blobs = list(map(str.encode, filled))
        offsets = array("q", accumulate(map(len, blobs)))
        return ColumnBlock("text", count, mask, b"".join(blobs), _le(offsets))
    payload = b"".join(
        b"\x00" if v is None else _encode_object(v) for v in values
    )
    return ColumnBlock("object", count, mask, payload)
