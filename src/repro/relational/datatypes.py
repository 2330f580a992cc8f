"""Datatypes of the relational substrate and the casting rules between them.

The paper's prototype reads PostgreSQL databases; this substrate keeps the
same small set of SQL-ish datatypes.  Two operations matter for EFES:

* :func:`cast` — convert a raw value to a datatype (the value-fit detector
  counts values that *cannot* be cast to the target attribute's datatype,
  Section 5.1 "fill status").
* :func:`infer_datatype` — guess the datatype of a column of raw values
  (used by schema reverse engineering when a source arrives as a dump
  without a schema, Section 3.1 "Completeness").
"""

from __future__ import annotations

import enum
import math
from collections.abc import Iterable

from .errors import TypeCastError


class DataType(enum.Enum):
    """SQL-style datatypes supported by the substrate."""

    INTEGER = "integer"
    FLOAT = "float"
    STRING = "string"
    BOOLEAN = "boolean"
    DATE = "date"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value

    @property
    def is_numeric(self) -> bool:
        """Whether values of this type support arithmetic statistics."""
        return self in (DataType.INTEGER, DataType.FLOAT)

    @property
    def is_textual(self) -> bool:
        """Whether values of this type are compared as character strings."""
        return self in (DataType.STRING, DataType.DATE)


_TRUE_LITERALS = frozenset({"true", "t", "yes", "y", "1"})
_FALSE_LITERALS = frozenset({"false", "f", "no", "n", "0"})


def _cast_integer(value: object) -> int:
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        if math.isfinite(value) and value == int(value):
            return int(value)
        raise TypeCastError(value, DataType.INTEGER)
    if isinstance(value, str):
        text = value.strip()
        try:
            return int(text)
        except ValueError as exc:
            raise TypeCastError(value, DataType.INTEGER) from exc
    raise TypeCastError(value, DataType.INTEGER)


def _cast_float(value: object) -> float:
    if isinstance(value, (int, float)):  # bool is an int
        try:
            result = float(value)
        except OverflowError as exc:  # an int too large for a double
            raise TypeCastError(value, DataType.FLOAT) from exc
    elif isinstance(value, str):
        try:
            result = float(value.strip())
        except ValueError as exc:
            raise TypeCastError(value, DataType.FLOAT) from exc
    else:
        raise TypeCastError(value, DataType.FLOAT)
    # NaN and the infinities are no FLOAT values, as text or as floats.
    if math.isfinite(result):
        return result
    raise TypeCastError(value, DataType.FLOAT)


def _cast_string(value: object) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        try:
            return str(value)
        except ValueError as exc:  # an int past the int-to-text digit limit
            raise TypeCastError(value, DataType.STRING) from exc
    raise TypeCastError(value, DataType.STRING)


def _cast_boolean(value: object) -> bool:
    if isinstance(value, bool):
        return value
    if isinstance(value, int) and value in (0, 1):
        return bool(value)
    if isinstance(value, str):
        text = value.strip().lower()
        if text in _TRUE_LITERALS:
            return True
        if text in _FALSE_LITERALS:
            return False
    raise TypeCastError(value, DataType.BOOLEAN)


def _is_date_text(text: str) -> bool:
    """Check ISO-8601 ``YYYY-MM-DD`` shape without importing datetime."""
    # ``str.isdigit`` also accepts digits ``int`` cannot parse, such as
    # superscripts: only ASCII digits make a date.
    if not text.isascii():
        return False
    parts = text.split("-")
    if len(parts) != 3:
        return False
    year, month, day = parts
    if not (year.isdigit() and month.isdigit() and day.isdigit()):
        return False
    if len(year) != 4 or len(month) != 2 or len(day) != 2:
        return False
    return 1 <= int(month) <= 12 and 1 <= int(day) <= 31


def _cast_date(value: object) -> str:
    if isinstance(value, str):
        text = value.strip()
        if _is_date_text(text):
            return text
    raise TypeCastError(value, DataType.DATE)


_CASTERS = {
    DataType.INTEGER: _cast_integer,
    DataType.FLOAT: _cast_float,
    DataType.STRING: _cast_string,
    DataType.BOOLEAN: _cast_boolean,
    DataType.DATE: _cast_date,
}

#: The Python type whose values a datatype's caster returns unchanged.
#: Types are compared exactly: a ``bool`` is an ``int`` but casts to
#: INTEGER as ``int(value)``.  FLOAT refuses NaN and the infinities and
#: DATE checks the shape, so neither casts any type as the identity.
_NATIVE_TYPES = {
    DataType.INTEGER: int,
    DataType.STRING: str,
    DataType.BOOLEAN: bool,
}


def is_native(types: set[type] | frozenset[type], datatype: DataType) -> bool:
    """Whether values of exactly the Python ``types`` (``NoneType`` for
    NULL) all cast to ``datatype`` as themselves."""
    native = _NATIVE_TYPES.get(datatype)
    return native is not None and types <= {native, type(None)}


def cast(value: object, datatype: DataType) -> object:
    """Cast ``value`` to ``datatype``.

    ``None`` (SQL NULL) passes through unchanged.  Raises
    :class:`~repro.relational.errors.TypeCastError` when the value cannot
    be represented in the target type.
    """
    if value is None:
        return None
    return _CASTERS[datatype](value)


def cast_column(values: Iterable[object], datatype: DataType) -> list[object]:
    """:func:`cast` every value of a column, as a new list.

    A column whose non-null values all have exactly the datatype's native
    type (see :func:`is_native`) is copied without calling the caster,
    since every cast would return its argument; any other column is cast
    value by value through one caster looked up per column.
    """
    values = list(values)
    if is_native(set(map(type, values)), datatype):
        return values
    caster = _CASTERS[datatype]
    return [None if value is None else caster(value) for value in values]


def try_cast_column(values: Iterable[object], datatype: DataType) -> list[object]:
    """:func:`cast_column`, with ``None`` for each value that cannot be cast.

    A non-null value casts to ``None`` only when it cannot be cast, so
    ``try_cast_column(non_null, datatype).count(None)`` counts those.
    """
    caster = _CASTERS[datatype]
    casts: list[object] = []
    for value in values:
        try:
            casts.append(None if value is None else caster(value))
        except TypeCastError:
            casts.append(None)
    return casts


def can_cast(value: object, datatype: DataType) -> bool:
    """Whether :func:`cast` would succeed for ``value`` and ``datatype``."""
    try:
        cast(value, datatype)
    except TypeCastError:
        return False
    return True


def infer_datatype(values: Iterable[object]) -> DataType:
    """Infer the most specific datatype that accommodates all ``values``.

    Nulls are ignored.  The preference order is BOOLEAN < INTEGER < FLOAT <
    DATE < STRING; an empty (or all-null) column defaults to STRING, the
    most permissive type.
    """
    candidates = [
        DataType.BOOLEAN,
        DataType.INTEGER,
        DataType.FLOAT,
        DataType.DATE,
        DataType.STRING,
    ]
    seen_any = False
    for value in values:
        if value is None:
            continue
        seen_any = True
        candidates = [dt for dt in candidates if can_cast(value, dt)]
        if candidates == [DataType.STRING]:
            break
    if not seen_any or not candidates:
        return DataType.STRING
    return candidates[0]
