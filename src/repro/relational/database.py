"""A database = schema + instance, the unit EFES scenarios are built from."""

from __future__ import annotations

import copy
from collections.abc import Iterable, Mapping, Sequence

from .constraints import Constraint
from .instance import DatabaseInstance, RelationInstance
from .schema import Relation, Schema


class Database:
    """A schema together with an instance of it.

    This mirrors the paper's notion of a source or target database
    (Section 3.1): "a relational schema, an instance of this schema, and a
    set of constraints, which must be satisfied by that instance".
    """

    def __init__(self, schema: Schema, instance: DatabaseInstance | None = None) -> None:
        self.schema = schema
        self.instance = instance if instance is not None else DatabaseInstance(schema)
        if self.instance.schema is not schema:
            raise ValueError("instance does not belong to the given schema")

    @property
    def name(self) -> str:
        return self.schema.name

    def relation(self, name: str) -> Relation:
        return self.schema.relation(name)

    def table(self, name: str) -> RelationInstance:
        """The instance of relation ``name`` (SQL users think "table")."""
        return self.instance[name]

    @property
    def constraints(self) -> tuple[Constraint, ...]:
        return self.schema.constraints

    def insert(self, relation_name: str, row: Sequence[object] | Mapping[str, object]):
        return self.instance.insert(relation_name, row)

    def insert_all(
        self,
        relation_name: str,
        rows: Iterable[Sequence[object] | Mapping[str, object]],
    ) -> None:
        """Insert rows into one relation as a single all-or-nothing batch."""
        self.instance.insert_all(relation_name, rows)

    def query(self, sql: str) -> list[dict[str, object]]:
        """Run a SELECT statement against this database (SQL subset)."""
        from .sql import query as sql_query

        return sql_query(self, sql)

    def execute(self, sql: str):
        """Run any supported SQL statement (SELECT/INSERT/UPDATE/DELETE/
        CREATE TABLE); SELECTs return rows, mutations return row counts."""
        from .sql import execute as sql_execute

        return sql_execute(self, sql)

    def copy(self) -> "Database":
        """A deep copy; the practitioner simulator mutates copies only."""
        clone = Database(self.schema)
        clone.instance = copy.deepcopy(self.instance)
        return clone

    def total_rows(self) -> int:
        return self.instance.total_rows()

    @property
    def version(self) -> tuple:
        """The instance's mutation counters (see ``DatabaseInstance.version``)
        and the number of declared constraints, which are only ever
        appended: a constraint added to an assessed database changes it."""
        return (*self.instance.version, len(self.schema.constraints))

    def __repr__(self) -> str:
        return (
            f"Database({self.schema.name!r}, "
            f"{len(self.schema.relations)} relations, "
            f"{self.total_rows()} rows)"
        )
