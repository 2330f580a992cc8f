"""Scenario serialization: save/load integration scenarios on disk.

This is the adoption path for user data, and the one format a scenario
is read from besides the catalogue: export your databases as CSV,
describe schemas + constraints + correspondences in JSON, and point EFES
at the directory (``efes assess path/to/scenario``, or a service
submission naming it).

Layout::

    scenario-dir/
        scenario.json           # name, source db names, correspondences
        <database>/schema.json  # relations, attributes, constraints
        <database>/<relation>.csv

``known_transformations`` are callables and therefore not serialised;
loading a saved scenario yields one without practitioner hints (which
only affects ground-truth simulation, never estimation).
"""

from __future__ import annotations

import json
from pathlib import Path

from ..matching.correspondence import Correspondence, CorrespondenceSet
from ..relational.errors import InstanceError
from ..resilience import DegradedResult
from ..relational.constraints import (
    Constraint,
    ForeignKey,
    FunctionalDependencyConstraint,
    NotNull,
    PrimaryKey,
    Unique,
)
from ..relational.csv_io import dump_relation, load_relation
from ..relational.database import Database
from ..relational.datatypes import DataType
from ..relational.schema import Attribute, Relation, Schema
from .scenario import IntegrationScenario

FORMAT_VERSION = 1


class ScenarioFormatError(ValueError):
    """A scenario directory is malformed or uses an unknown version."""


# ----------------------------------------------------------------------
# Constraint (de)serialisation
# ----------------------------------------------------------------------


def constraint_to_dict(constraint: Constraint) -> dict:
    if isinstance(constraint, PrimaryKey):
        return {
            "kind": "primary_key",
            "relation": constraint.relation,
            "attributes": list(constraint.attributes),
        }
    if isinstance(constraint, Unique):
        return {
            "kind": "unique",
            "relation": constraint.relation,
            "attributes": list(constraint.attributes),
        }
    if isinstance(constraint, NotNull):
        return {
            "kind": "not_null",
            "relation": constraint.relation,
            "attribute": constraint.attribute,
        }
    if isinstance(constraint, ForeignKey):
        return {
            "kind": "foreign_key",
            "relation": constraint.relation,
            "attributes": list(constraint.attributes),
            "referenced": constraint.referenced,
            "referenced_attributes": list(constraint.referenced_attributes),
        }
    if isinstance(constraint, FunctionalDependencyConstraint):
        return {
            "kind": "functional_dependency",
            "relation": constraint.relation,
            "determinant": constraint.determinant,
            "dependent": constraint.dependent,
        }
    raise ScenarioFormatError(
        f"unserialisable constraint type: {type(constraint).__name__}"
    )


def constraint_from_dict(data: dict) -> Constraint:
    kind = data.get("kind")
    if kind == "primary_key":
        return PrimaryKey(data["relation"], tuple(data["attributes"]))
    if kind == "unique":
        return Unique(data["relation"], tuple(data["attributes"]))
    if kind == "not_null":
        return NotNull(data["relation"], data["attribute"])
    if kind == "foreign_key":
        return ForeignKey(
            data["relation"],
            tuple(data["attributes"]),
            data["referenced"],
            tuple(data["referenced_attributes"]),
        )
    if kind == "functional_dependency":
        return FunctionalDependencyConstraint(
            data["relation"], data["determinant"], data["dependent"]
        )
    raise ScenarioFormatError(f"unknown constraint kind: {kind!r}")


# ----------------------------------------------------------------------
# Database (de)serialisation
# ----------------------------------------------------------------------


def save_database(database: Database, directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    schema_doc = {
        "name": database.schema.name,
        "relations": [
            {
                "name": rel.name,
                "attributes": [
                    {"name": a.name, "type": a.datatype.value}
                    for a in rel.attributes
                ],
            }
            for rel in database.schema.relations
        ],
        "constraints": [
            constraint_to_dict(c) for c in database.schema.constraints
        ],
    }
    (directory / "schema.json").write_text(
        json.dumps(schema_doc, indent=2), encoding="utf-8"
    )
    # A SQL rendering of the same schema, for humans and other tools
    # (schema.json remains the loading source of truth).
    from ..relational.sql import schema_to_ddl

    (directory / "schema.sql").write_text(
        schema_to_ddl(database.schema), encoding="utf-8"
    )
    for rel in database.schema.relations:
        dump_relation(database.table(rel.name), directory / f"{rel.name}.csv")


def load_database(
    directory: Path,
    *,
    degradations: list[DegradedResult] | None = None,
    scenario_name: str = "",
) -> Database:
    """Load one database directory (schema.json + per-relation CSVs).

    A malformed relation CSV — bad row arity, undecodable bytes — is a
    data problem, not a format problem: with ``degradations`` supplied
    the relation loads **empty** and a :class:`DegradedResult` tombstone
    (``phase="load"``, error carrying the ``file:line`` diagnostic) is
    appended instead of raising; without it the one-line diagnostic is
    re-raised as :class:`ScenarioFormatError`.
    """
    schema_path = directory / "schema.json"
    if not schema_path.exists():
        raise ScenarioFormatError(f"missing {schema_path}")
    document = json.loads(schema_path.read_text(encoding="utf-8"))
    relations = []
    for rel_doc in document.get("relations", ()):
        attributes = [
            Attribute(a["name"], DataType(a["type"]))
            for a in rel_doc.get("attributes", ())
        ]
        relations.append(Relation(rel_doc["name"], attributes))
    schema = Schema(document["name"], relations=relations)
    for constraint_doc in document.get("constraints", ()):
        schema.add_constraint(constraint_from_dict(constraint_doc))
    database = Database(schema)
    for rel in schema.relations:
        csv_path = directory / f"{rel.name}.csv"
        if not csv_path.exists():
            continue  # empty relation: no CSV is fine
        try:
            loaded = load_relation(csv_path, relation=rel)
        except InstanceError as exc:
            if degradations is None:
                raise ScenarioFormatError(str(exc)) from exc
            degradations.append(
                DegradedResult(
                    module=f"{document['name']}.{rel.name}",
                    phase="load",
                    error=f"{type(exc).__name__}: {exc}",
                    scenario=scenario_name,
                )
            )
            continue
        database.insert_all(rel.name, loaded)
    return database


# ----------------------------------------------------------------------
# Scenario (de)serialisation
# ----------------------------------------------------------------------


def _correspondence_to_dict(c: Correspondence) -> dict:
    return {
        "source": c.source,
        "target": c.target,
        "level": "attribute" if c.is_attribute_level else "relation",
        "confidence": c.confidence,
    }


def _correspondence_from_dict(data: dict) -> Correspondence:
    if data.get("level") == "attribute":
        source_relation, source_attribute = data["source"].split(".", 1)
        target_relation, target_attribute = data["target"].split(".", 1)
        return Correspondence(
            source_relation,
            source_attribute,
            target_relation,
            target_attribute,
            confidence=data.get("confidence", 1.0),
        )
    return Correspondence(
        data["source"], None, data["target"], None,
        confidence=data.get("confidence", 1.0),
    )


def save_scenario(scenario: IntegrationScenario, path: str | Path) -> Path:
    """Write the scenario to ``path``; returns the directory path."""
    directory = Path(path)
    directory.mkdir(parents=True, exist_ok=True)
    manifest = {
        "version": FORMAT_VERSION,
        "name": scenario.name,
        "sources": [source.name for source in scenario.sources],
        "target": scenario.target.name,
        "correspondences": {
            source_name: [
                _correspondence_to_dict(c) for c in correspondence_set
            ]
            for source_name, correspondence_set in (
                scenario.correspondences.items()
            )
        },
    }
    (directory / "scenario.json").write_text(
        json.dumps(manifest, indent=2), encoding="utf-8"
    )
    for source in scenario.sources:
        save_database(source, directory / source.name)
    save_database(scenario.target, directory / scenario.target.name)
    return directory


def load_scenario(
    path: str | Path, *, strict: bool = False
) -> IntegrationScenario:
    """Load a scenario previously written by :func:`save_scenario` (or
    hand-authored in the same layout).

    Structural problems (missing manifest, unknown version, missing
    schema) always raise :class:`ScenarioFormatError`.  Malformed
    relation **data** is softer by default: each bad CSV loads as an
    empty relation and leaves a :class:`DegradedResult` tombstone on
    ``scenario.load_degradations``.  :meth:`Efes.assess
    <repro.core.framework.Efes.assess>` reads them: non-strict, they
    lead its report dict, so every deliverable that assesses the
    scenario (an estimate, an assessment, a service job) survives,
    visibly partial; strict, the first one raises.  ``strict=True``
    here upgrades the first bad CSV to a :class:`ScenarioFormatError`
    carrying the ``file:line`` diagnostic at load time.
    """
    directory = Path(path)
    manifest_path = directory / "scenario.json"
    if not manifest_path.exists():
        raise ScenarioFormatError(f"missing {manifest_path}")
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    version = manifest.get("version")
    if version != FORMAT_VERSION:
        raise ScenarioFormatError(
            f"unsupported scenario format version: {version!r}"
        )
    degradations: list[DegradedResult] | None = None if strict else []
    name = manifest["name"]
    sources = [
        load_database(
            directory / source,
            degradations=degradations,
            scenario_name=name,
        )
        for source in manifest["sources"]
    ]
    target = load_database(
        directory / manifest["target"],
        degradations=degradations,
        scenario_name=name,
    )
    correspondences = {
        source_name: CorrespondenceSet(
            _correspondence_from_dict(entry) for entry in entries
        )
        for source_name, entries in manifest["correspondences"].items()
    }
    scenario = IntegrationScenario(name, sources, target, correspondences)
    if degradations:
        scenario.load_degradations = degradations
    return scenario
