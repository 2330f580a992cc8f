"""Exporters: span trees to JSON/text, metrics to Prometheus exposition.

Three consumers, three formats:

* :func:`span_to_dict` / :func:`span_from_dict` — the lossless JSON codec
  behind ``GET /trace/<job_id>``, the experiments harness's per-scenario
  trace files, and :mod:`repro.core.serialize`,
* :func:`render_span_tree` — the aligned text tree ``efes trace`` prints,
  with per-span total/self times and cache-hit annotations,
* :func:`prometheus_text` — Prometheus text exposition (format 0.0.4) of
  a :class:`~repro.runtime.metrics.MetricsSnapshot`, served by the
  service's ``GET /metrics`` under ``Accept: text/plain``.

The exposition follows the format rules that scrapers actually validate:
sanitised metric names, escaped label values, cumulative monotone
histogram buckets ending at ``+Inf``, and ``_sum``/``_count`` series per
histogram family.  Quantile estimates (p50/p95/p99) are emitted as a
companion gauge family because native histograms cannot carry them.
"""

from __future__ import annotations

import math
import re

from .tracing import Span

_METRIC_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")
_LABEL_NAME_RE = re.compile(r"[^a-zA-Z0-9_]")

#: Format marker embedded in serialised span documents.
TRACE_VERSION = 1


# ----------------------------------------------------------------------
# Span codec
# ----------------------------------------------------------------------


def span_to_dict(span: Span) -> dict:
    """A lossless JSON-compatible rendering of a span subtree."""
    return {
        "name": span.name,
        "trace_id": span.trace_id,
        "span_id": span.span_id,
        "parent_id": span.parent_id,
        "started_at": span.started_at,
        "duration_seconds": span.duration_seconds,
        "attributes": dict(span.attributes),
        "children": [span_to_dict(child) for child in span.children],
    }


def span_from_dict(doc: dict) -> Span:
    """Rebuild a span tree; the inverse of :func:`span_to_dict`."""
    try:
        span = Span(
            doc["name"],
            trace_id=doc["trace_id"],
            parent_id=doc.get("parent_id"),
            attributes=doc.get("attributes"),
        )
        span.span_id = doc["span_id"]
        span.started_at = doc["started_at"]
        span.duration_seconds = doc["duration_seconds"]
        for child_doc in doc.get("children", ()):
            span.add_child(span_from_dict(child_doc))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed span document: {exc}") from exc
    return span


# ----------------------------------------------------------------------
# Text tree
# ----------------------------------------------------------------------


def _annotations(span: Span) -> str:
    notes = []
    if span.attributes.get("cache_hit") is True:
        notes.append("cache hit")
    if span.attributes.get("from_store") is True:
        notes.append("from store")
    if "error" in span.attributes:
        notes.append(f"error: {span.attributes['error']}")
    return f"  [{', '.join(notes)}]" if notes else ""


def render_span_tree(span: Span, *, name_width: int | None = None) -> str:
    """An aligned, box-drawn rendering of one trace tree::

        run:example                       total  1.2034s  self  0.0021s
        ├─ assess                         total  0.9001s  self  0.0004s
        │  ├─ detector:mapping            total  0.3101s  self  0.2900s
        │  │  └─ profile                  total  0.0201s  self  0.0201s  [cache hit]
        ...
    """
    rows: list[tuple[str, Span]] = []

    def collect(node: Span, prefix: str, is_last: bool, is_root: bool) -> None:
        if is_root:
            label = node.name
            child_prefix = ""
        else:
            connector = "└─ " if is_last else "├─ "
            label = f"{prefix}{connector}{node.name}"
            child_prefix = prefix + ("   " if is_last else "│  ")
        rows.append((label, node))
        children = list(node.children)
        for index, child in enumerate(children):
            collect(child, child_prefix, index == len(children) - 1, False)

    collect(span, "", True, True)
    width = name_width or max(len(label) for label, _ in rows)
    lines = []
    for label, node in rows:
        lines.append(
            f"{label:<{width}}  total {node.total_seconds:9.4f}s"
            f"  self {node.self_seconds:9.4f}s{_annotations(node)}"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------


def sanitize_metric_name(name: str) -> str:
    """Map an internal metric name onto ``[a-zA-Z_:][a-zA-Z0-9_:]*``."""
    sanitized = _METRIC_NAME_RE.sub("_", name)
    if sanitized and sanitized[0].isdigit():
        sanitized = f"_{sanitized}"
    return sanitized


def escape_label_value(value: str) -> str:
    """Escape a label value per the exposition format: backslash, quote,
    and newline."""
    return (
        str(value)
        .replace("\\", r"\\")
        .replace('"', r"\"")
        .replace("\n", r"\n")
    )


def format_labels(labels: dict | tuple) -> str:
    pairs = dict(labels)
    if not pairs:
        return ""
    rendered = ",".join(
        f'{_LABEL_NAME_RE.sub("_", str(name))}="{escape_label_value(value)}"'
        for name, value in sorted(pairs.items())
    )
    return f"{{{rendered}}}"


def _format_value(value: float) -> str:
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    return repr(float(value))


def prometheus_text(
    snapshot,
    *,
    prefix: str = "repro",
    extra_gauges: dict[str, float] | None = None,
) -> str:
    """Render a :class:`~repro.runtime.metrics.MetricsSnapshot` (plus
    optional scalar gauges, e.g. queue depth) as Prometheus exposition.

    Counters become ``<prefix>_<name>_total``; stage timings become a
    ``_stage_seconds`` family with work/wall/max series; histograms are
    emitted natively with cumulative buckets plus a companion
    ``_quantile``-labelled gauge family for p50/p95/p99.
    """
    lines: list[str] = []

    for name in sorted(snapshot.counters):
        metric = f"{prefix}_{sanitize_metric_name(name)}_total"
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {snapshot.counters[name]}")

    gauge_families: dict[str, list[tuple[dict, float]]] = {}
    for name, labels, value in getattr(snapshot, "gauges", ()):
        gauge_families.setdefault(name, []).append((dict(labels), value))
    for name in sorted(gauge_families):
        metric = f"{prefix}_{sanitize_metric_name(name)}"
        lines.append(f"# TYPE {metric} gauge")
        for labels, value in gauge_families[name]:
            lines.append(
                f"{metric}{format_labels(labels)} {_format_value(value)}"
            )

    if snapshot.stages:
        work = f"{prefix}_stage_work_seconds"
        lines.append(f"# HELP {work} Summed per-call work time per stage.")
        lines.append(f"# TYPE {work} counter")
        for name in sorted(snapshot.stages):
            timing = snapshot.stages[name]
            labels = format_labels({"stage": name})
            lines.append(f"{work}{labels} {_format_value(timing.seconds)}")
        for suffix, help_text, getter in (
            ("stage_wall_seconds", "Wall-clock latency per stage "
             "(concurrent calls overlap).", lambda t: t.wall_seconds),
            ("stage_max_seconds", "Longest single call per stage.",
             lambda t: t.max_seconds),
            ("stage_calls_total", "Calls per stage.", lambda t: t.calls),
        ):
            metric = f"{prefix}_{suffix}"
            kind = "counter" if suffix.endswith("_total") else "gauge"
            lines.append(f"# HELP {metric} {help_text}")
            lines.append(f"# TYPE {metric} {kind}")
            for name in sorted(snapshot.stages):
                timing = snapshot.stages[name]
                labels = format_labels({"stage": name})
                lines.append(
                    f"{metric}{labels} {_format_value(getter(timing))}"
                )

    families: dict[str, list] = {}
    for histogram in getattr(snapshot, "histograms", ()):
        families.setdefault(histogram.name, []).append(histogram)
    for family_name in sorted(families):
        metric = f"{prefix}_{sanitize_metric_name(family_name)}"
        lines.append(f"# TYPE {metric} histogram")
        for histogram in families[family_name]:
            base_labels = dict(histogram.labels)
            for bound, cumulative in histogram.cumulative_buckets():
                labels = format_labels(
                    {**base_labels, "le": _format_value(bound)}
                )
                lines.append(f"{metric}_bucket{labels} {cumulative}")
            labels = format_labels(base_labels)
            lines.append(f"{metric}_sum{labels} {_format_value(histogram.sum)}")
            lines.append(f"{metric}_count{labels} {histogram.count}")
        quantile_metric = f"{metric}_quantile"
        lines.append(f"# TYPE {quantile_metric} gauge")
        for histogram in families[family_name]:
            base_labels = dict(histogram.labels)
            for q in (0.5, 0.95, 0.99):
                labels = format_labels({**base_labels, "quantile": str(q)})
                lines.append(
                    f"{quantile_metric}{labels} "
                    f"{_format_value(histogram.quantile(q))}"
                )

    timestamp = getattr(snapshot, "timestamp", None)
    if timestamp is not None:
        metric = f"{prefix}_metrics_snapshot_timestamp_seconds"
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {_format_value(timestamp)}")

    for name, value in sorted((extra_gauges or {}).items()):
        metric = f"{prefix}_{sanitize_metric_name(name)}"
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {_format_value(value)}")

    return "\n".join(lines) + "\n"
