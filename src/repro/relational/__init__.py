"""In-memory relational substrate.

This package replaces the PostgreSQL backend of the paper's prototype with
an embedded engine: typed schemas, constraints, instances, validation,
CSV I/O, and a SQL subset (:mod:`repro.relational.sql`).  Every other
subsystem (data profiling, CSG conversion, the EFES modules, the
practitioner simulator) reads databases exclusively through this package.
"""

from .constraints import (
    Constraint,
    ForeignKey,
    FunctionalDependencyConstraint,
    NotNull,
    PrimaryKey,
    Unique,
    foreign_key,
    primary_key,
    unique,
)
from .database import Database
from .datatypes import DataType, can_cast, cast, infer_datatype
from .errors import (
    ConstraintError,
    InstanceError,
    IntegrityError,
    RelationalError,
    SchemaError,
    TypeCastError,
    UnknownAttributeError,
    UnknownRelationError,
)
from .instance import DatabaseInstance, RelationInstance
from .schema import Attribute, Relation, Schema, relation
from .validation import Violation, assert_valid, check_constraint, is_valid, validate

__all__ = [
    "Attribute",
    "Constraint",
    "ConstraintError",
    "Database",
    "DatabaseInstance",
    "DataType",
    "ForeignKey",
    "FunctionalDependencyConstraint",
    "InstanceError",
    "IntegrityError",
    "NotNull",
    "PrimaryKey",
    "Relation",
    "RelationInstance",
    "RelationalError",
    "Schema",
    "SchemaError",
    "TypeCastError",
    "Unique",
    "UnknownAttributeError",
    "UnknownRelationError",
    "Violation",
    "assert_valid",
    "can_cast",
    "cast",
    "check_constraint",
    "foreign_key",
    "infer_datatype",
    "is_valid",
    "primary_key",
    "relation",
    "unique",
    "validate",
]
