"""JSON (de)serialisation for the EFES deliverables.

Scenarios have had an on-disk format since the beginning
(:mod:`repro.scenarios.io`); the *outputs* of the pipeline — complexity
reports, planned task lists, and effort estimates — historically lived
only in memory.  The assessment service (:mod:`repro.service`) stores and
ships them over HTTP, so every shipped shape gets a lossless dict codec
here: ``X_to_dict(x)`` produces plain JSON-compatible data and
``X_from_dict(doc)`` restores an object that compares equal to the
original.

Report dispatch is open: custom report classes register themselves in
:data:`repro.core.reports.REPORT_TYPES` together with a codec pair via
:func:`register_report_codec`.
"""

from __future__ import annotations

import json
import zlib
from collections.abc import Callable, Mapping

from ..observability import Span
from ..observability import span_from_dict as _span_from_dict
from ..observability import span_to_dict as _span_to_dict
from .effort import EffortEstimate, TaskEffort
from .quality import ResultQuality
from .reports import (
    REPORT_TYPES,
    ComplexityReport,
    MappingComplexityReport,
    MappingConnection,
    StructureComplexityReport,
    StructureViolation,
    ValueComplexityReport,
    ValueHeterogeneityFinding,
)
from .tasks import StructuralConflict, Task, TaskType, ValueHeterogeneity


class SerializationError(ValueError):
    """A document or object cannot be (de)serialised."""


# ----------------------------------------------------------------------
# Tasks
# ----------------------------------------------------------------------


def task_to_dict(task: Task) -> dict:
    return {
        "type": task.type.value,
        "quality": task.quality.value,
        "subject": task.subject,
        "parameters": dict(task.parameters),
        "module": task.module,
    }


def task_from_dict(doc: Mapping) -> Task:
    try:
        return Task(
            type=TaskType(doc["type"]),
            quality=ResultQuality(doc["quality"]),
            subject=doc["subject"],
            parameters=dict(doc.get("parameters", {})),
            module=doc.get("module", ""),
        )
    except (KeyError, ValueError) as exc:
        raise SerializationError(f"malformed task document: {exc}") from exc


def tasks_to_dicts(tasks: list[Task]) -> list[dict]:
    return [task_to_dict(task) for task in tasks]


def tasks_from_dicts(docs: list[Mapping]) -> list[Task]:
    return [task_from_dict(doc) for doc in docs]


# ----------------------------------------------------------------------
# Complexity reports
# ----------------------------------------------------------------------


def _connection_to_dict(connection: MappingConnection) -> dict:
    return {
        "target_table": connection.target_table,
        "source_database": connection.source_database,
        "source_tables": connection.source_tables,
        "attributes": connection.attributes,
        "needs_primary_key": connection.needs_primary_key,
        "foreign_keys": connection.foreign_keys,
    }


def _connection_from_dict(doc: Mapping) -> MappingConnection:
    return MappingConnection(
        target_table=doc["target_table"],
        source_database=doc["source_database"],
        source_tables=doc["source_tables"],
        attributes=doc["attributes"],
        needs_primary_key=doc["needs_primary_key"],
        foreign_keys=doc.get("foreign_keys", 0),
    )


def _violation_to_dict(violation: StructureViolation) -> dict:
    return {
        "source_database": violation.source_database,
        "target_relationship": violation.target_relationship,
        "conflict": violation.conflict.value,
        "prescribed": violation.prescribed,
        "inferred": violation.inferred,
        "violation_count": violation.violation_count,
        "scope": violation.scope,
        "target_relation": violation.target_relation,
        "target_attribute": violation.target_attribute,
    }


def _violation_from_dict(doc: Mapping) -> StructureViolation:
    return StructureViolation(
        source_database=doc["source_database"],
        target_relationship=doc["target_relationship"],
        conflict=StructuralConflict(doc["conflict"]),
        prescribed=doc["prescribed"],
        inferred=doc["inferred"],
        violation_count=doc["violation_count"],
        scope=doc["scope"],
        target_relation=doc.get("target_relation", ""),
        target_attribute=doc.get("target_attribute", ""),
    )


def _finding_to_dict(finding: ValueHeterogeneityFinding) -> dict:
    return {
        "source_database": finding.source_database,
        "source_attribute": finding.source_attribute,
        "target_attribute": finding.target_attribute,
        "heterogeneity": finding.heterogeneity.value,
        "parameters": dict(finding.parameters),
    }


def _finding_from_dict(doc: Mapping) -> ValueHeterogeneityFinding:
    return ValueHeterogeneityFinding(
        source_database=doc["source_database"],
        source_attribute=doc["source_attribute"],
        target_attribute=doc["target_attribute"],
        heterogeneity=ValueHeterogeneity(doc["heterogeneity"]),
        parameters=dict(doc.get("parameters", {})),
    )


def _mapping_report_to_dict(report: MappingComplexityReport) -> dict:
    return {"connections": [_connection_to_dict(c) for c in report.connections]}


def _mapping_report_from_dict(doc: Mapping) -> MappingComplexityReport:
    return MappingComplexityReport(
        connections=[_connection_from_dict(c) for c in doc["connections"]]
    )


def _structure_report_to_dict(report: StructureComplexityReport) -> dict:
    return {"violations": [_violation_to_dict(v) for v in report.violations]}


def _structure_report_from_dict(doc: Mapping) -> StructureComplexityReport:
    return StructureComplexityReport(
        violations=[_violation_from_dict(v) for v in doc["violations"]]
    )


def _value_report_to_dict(report: ValueComplexityReport) -> dict:
    return {"findings": [_finding_to_dict(f) for f in report.findings]}


def _value_report_from_dict(doc: Mapping) -> ValueComplexityReport:
    return ValueComplexityReport(
        findings=[_finding_from_dict(f) for f in doc["findings"]]
    )


#: kind -> (encode body, decode body); the "kind" is the registry key of
#: :data:`repro.core.reports.REPORT_TYPES`.
_REPORT_CODECS: dict[
    str,
    tuple[Callable[[ComplexityReport], dict], Callable[[Mapping], ComplexityReport]],
] = {
    "mapping": (_mapping_report_to_dict, _mapping_report_from_dict),
    "structure": (_structure_report_to_dict, _structure_report_from_dict),
    "values": (_value_report_to_dict, _value_report_from_dict),
}


def register_report_codec(
    kind: str,
    report_type: type,
    encode: Callable[[ComplexityReport], dict],
    decode: Callable[[Mapping], ComplexityReport],
) -> None:
    """Register a custom report class for (de)serialisation dispatch."""
    REPORT_TYPES[kind] = report_type
    _REPORT_CODECS[kind] = (encode, decode)


def _kind_of(report: ComplexityReport) -> str:
    for kind, report_type in REPORT_TYPES.items():
        if type(report) is report_type:
            return kind
    raise SerializationError(
        f"unserialisable report type: {type(report).__name__} "
        "(register it with repro.core.serialize.register_report_codec)"
    )


def report_to_dict(report: ComplexityReport) -> dict:
    kind = _kind_of(report)
    encode, _ = _REPORT_CODECS[kind]
    return {"kind": kind, "module": report.module, **encode(report)}


def report_from_dict(doc: Mapping) -> ComplexityReport:
    kind = doc.get("kind")
    if kind not in _REPORT_CODECS:
        raise SerializationError(f"unknown report kind: {kind!r}")
    _, decode = _REPORT_CODECS[kind]
    report = decode(doc)
    if "module" in doc:
        report.module = doc["module"]
    return report


def reports_to_dict(reports: Mapping[str, ComplexityReport]) -> dict:
    """Encode a phase-1 result (module name -> report) preserving order."""
    return {name: report_to_dict(report) for name, report in reports.items()}


def reports_from_dict(doc: Mapping) -> dict[str, ComplexityReport]:
    return {name: report_from_dict(body) for name, body in doc.items()}


# ----------------------------------------------------------------------
# Effort estimates
# ----------------------------------------------------------------------


def estimate_to_dict(estimate: EffortEstimate) -> dict:
    return {
        "scenario_name": estimate.scenario_name,
        "quality": estimate.quality.value,
        "entries": [
            {"task": task_to_dict(entry.task), "minutes": entry.minutes}
            for entry in estimate.entries
        ],
        # Redundant with the entries, but convenient for API consumers
        # that only want the headline number; ignored on decode.
        "total_minutes": estimate.total_minutes,
    }


def estimate_from_dict(doc: Mapping) -> EffortEstimate:
    try:
        return EffortEstimate(
            scenario_name=doc["scenario_name"],
            quality=ResultQuality(doc["quality"]),
            entries=[
                TaskEffort(task_from_dict(entry["task"]), entry["minutes"])
                for entry in doc["entries"]
            ],
        )
    except (KeyError, ValueError) as exc:
        raise SerializationError(f"malformed estimate document: {exc}") from exc


# ----------------------------------------------------------------------
# Trace spans
# ----------------------------------------------------------------------


def span_to_dict(span: Span) -> dict:
    """Encode a trace span tree (``Efes.run(trace=True)``, service job
    traces) as plain JSON-compatible data."""
    return _span_to_dict(span)


def span_from_dict(doc: Mapping) -> Span:
    """Restore a span tree; the inverse of :func:`span_to_dict`."""
    try:
        return _span_from_dict(dict(doc))
    except ValueError as exc:
        raise SerializationError(str(exc)) from exc


# ----------------------------------------------------------------------
# Journal records (write-ahead log lines of repro.durability)
# ----------------------------------------------------------------------
#
# The job journal is a JSONL write-ahead log: one record per line, each
# line self-verifying so a torn write (process killed mid-append) is
# detectable without trusting file length.  Line format::
#
#     <crc32 as 8 hex chars> <compact JSON object>\n
#
# The checksum covers exactly the JSON body.  A line is *complete* only
# when its trailing newline is present — a checksum that happens to
# survive truncation cannot make a partial record look whole.
#
# The report store (repro.service.store) writes each spool entry as one
# such record, ``{"key": <key>, "document": <doc>}``, so one codec and
# one decoder cover everything the service puts on disk.

#: Record types the job journal knows how to replay.
JOURNAL_RECORD_TYPES = ("submitted", "dispatched", "settled")


def journal_record_to_line(record: Mapping) -> str:
    """Encode one journal record as a checksummed JSONL line."""
    body = json.dumps(
        dict(record), sort_keys=True, ensure_ascii=False,
        separators=(",", ":"),
    )
    if "\n" in body or "\r" in body:  # json.dumps never emits raw newlines
        raise SerializationError("journal record serialised with a newline")
    checksum = zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF
    return f"{checksum:08x} {body}\n"


def journal_record_from_line(line: str) -> dict:
    """Decode one complete journal line; raises on any damage.

    The caller strips nothing: the line must carry its checksum prefix,
    a single space, the JSON body, and (optionally) the trailing
    newline the encoder wrote.
    """
    text = line.rstrip("\n")
    if len(text) < 10 or text[8] != " ":
        raise SerializationError(
            f"journal line has no checksum prefix: {text[:32]!r}"
        )
    prefix, body = text[:8], text[9:]
    try:
        expected = int(prefix, 16)
    except ValueError as exc:
        raise SerializationError(
            f"journal checksum is not hex: {prefix!r}"
        ) from exc
    actual = zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF
    if actual != expected:
        raise SerializationError(
            f"journal checksum mismatch: line says {prefix}, body hashes "
            f"to {actual:08x}"
        )
    try:
        record = json.loads(body)
    except ValueError as exc:  # pragma: no cover - crc already caught it
        raise SerializationError(
            f"journal body is not valid JSON: {exc}"
        ) from exc
    if not isinstance(record, dict):
        raise SerializationError("journal record is not an object")
    return record


def decode_journal_text(text: str) -> tuple[list[dict], int]:
    """Decode a journal segment with write-ahead-log truncation semantics.

    Returns ``(records, torn_lines)``: every record up to the first
    damaged or incomplete line, plus how many trailing lines were
    skipped.  Nothing after the first bad line is trusted — a torn or
    corrupted record invalidates the tail of its segment, exactly like a
    database WAL replay stopping at the first bad LSN.
    """
    records: list[dict] = []
    pieces = text.split("\n")
    # A well-formed segment ends with "\n", so the final piece is empty;
    # a non-empty final piece is a mid-append torn write.
    complete, tail = pieces[:-1], pieces[-1]
    torn = 1 if tail else 0
    for index, line in enumerate(complete):
        try:
            records.append(journal_record_from_line(line))
        except SerializationError:
            torn += len(complete) - index
            break
    return records, torn


# ----------------------------------------------------------------------
# JSON string convenience wrappers
# ----------------------------------------------------------------------


def dumps(doc: dict) -> str:
    """Canonical, indented JSON of a document (stable key order)."""
    return json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=False)


def loads(text: str) -> dict:
    return json.loads(text)
