"""Exception hierarchy for the relational substrate.

All errors raised by :mod:`repro.relational` derive from
:class:`RelationalError`, so callers can catch substrate problems with a
single ``except`` clause while still being able to distinguish schema
definition mistakes from data-level violations.
"""

from __future__ import annotations


class RelationalError(Exception):
    """Base class for all errors of the relational substrate."""


class SchemaError(RelationalError):
    """A schema definition is inconsistent (duplicate names, bad references)."""


class UnknownRelationError(SchemaError):
    """A relation name was referenced that the schema does not define."""

    def __init__(self, relation_name: str) -> None:
        super().__init__(f"unknown relation: {relation_name!r}")
        self.relation_name = relation_name


class UnknownAttributeError(SchemaError):
    """An attribute name was referenced that its relation does not define."""

    def __init__(self, relation_name: str, attribute_name: str) -> None:
        super().__init__(
            f"unknown attribute: {relation_name!r}.{attribute_name!r}"
        )
        self.relation_name = relation_name
        self.attribute_name = attribute_name


class ConstraintError(RelationalError):
    """A constraint definition is malformed."""


#: A cast error names a wider int by its width: the int's text can be
#: thousands of digits long, and past the interpreter's int-to-text limit
#: (4,300 digits by default) ``repr`` raises ``ValueError``.
_QUOTED_INT_BITS = 256


def _quote(value: object) -> str:
    """``repr(value)``, or the width of an int too wide to quote."""
    if isinstance(value, int) and value.bit_length() > _QUOTED_INT_BITS:
        return f"an int of {value.bit_length()} bits"
    return repr(value)


class TypeCastError(RelationalError):
    """A value could not be cast to the requested datatype."""

    def __init__(self, value: object, datatype: object) -> None:
        super().__init__(f"cannot cast {_quote(value)} to {datatype}")
        self.value = value
        self.datatype = datatype


class InstanceError(RelationalError):
    """A tuple does not fit its relation (arity or type mismatch)."""


class IntegrityError(RelationalError):
    """An instance violates a constraint and strict validation was requested."""
