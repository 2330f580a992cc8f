"""Observability for the assessment pipeline and service.

Two stdlib-only instruments, designed to compose with (not replace)
the aggregate counters of :class:`repro.runtime.RuntimeMetrics`:

* **Tracing** (:mod:`~repro.observability.tracing`) — hierarchical span
  trees (``assess → detector:<name> → profile/ucc/ind/fd``, ``plan``,
  ``estimate``, ``service.job:<id>``) with :mod:`contextvars`-based
  propagation, so instrumentation points need no tracer passed in.
  Disabled by default; activating a
  :class:`Tracer` turns every instrumentation point on for that context.
* **Histograms** (:mod:`~repro.observability.histograms`) — fixed
  log-scale latency distributions with p50/p95/p99 summaries.  Each
  pipeline layer is one ``stage_seconds{stage=<name>}`` series, fed by
  :meth:`repro.runtime.RuntimeMetrics.stage` from the same block and
  clock as the layer's span.

Process resources (:mod:`~repro.observability.resources`) are sampled
on demand, never by a background thread.  Nothing here keeps a gauge:
the service computes each one per ``/metrics`` scrape, and exporters
(:mod:`~repro.observability.export`) turn spans into JSON and aligned
text trees, and a metrics snapshot plus those gauges into Prometheus
exposition.
"""

from .export import (
    escape_label_value,
    prometheus_text,
    render_span_tree,
    span_from_dict,
    span_to_dict,
)
from .histograms import (
    DEFAULT_BOUNDS,
    Histogram,
    HistogramSnapshot,
)
from .resources import resource_summary, sample_resources
from .tracing import (
    NOOP_SPAN,
    Span,
    Tracer,
    active_tracer,
    current_span,
    is_tracing,
    span,
)

__all__ = [
    "DEFAULT_BOUNDS",
    "Histogram",
    "HistogramSnapshot",
    "NOOP_SPAN",
    "Span",
    "Tracer",
    "active_tracer",
    "current_span",
    "escape_label_value",
    "is_tracing",
    "prometheus_text",
    "render_span_tree",
    "resource_summary",
    "sample_resources",
    "span",
    "span_from_dict",
    "span_to_dict",
]
