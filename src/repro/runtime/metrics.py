"""Lightweight runtime instrumentation.

The assessment runtime (ROADMAP: "as fast as the hardware allows") needs
to be observable before it can be tuned: every :class:`RuntimeMetrics`
instance collects named counters (cache hits/misses, detector runs, task
counts) and labelled log-scale **histograms**
(:mod:`repro.observability.histograms`) so latency distributions —
p50/p95/p99 per stage — survive aggregation.  All operations are
thread-safe because the service's worker slots update one runtime's
metrics from several threads.  It keeps no gauges: a point-in-time value
is computed when it is read, by the service's ``/metrics`` scrape
(:meth:`repro.service.ServiceServer.metrics`).

Each pipeline layer is timed at one point, :meth:`RuntimeMetrics.stage`:
it opens the layer's span and records the block's duration once, as the
span's ``duration_seconds`` and as one ``stage_seconds{stage=<name>}``
sample, so a trace and the histograms read the same clock.
"""

from __future__ import annotations

import dataclasses
import threading
import time

from ..observability import tracing
from ..observability.histograms import Histogram, HistogramSnapshot


@dataclasses.dataclass(frozen=True)
class MetricsSnapshot:
    """An immutable copy of the metrics at one point in time.

    ``timestamp`` (unix seconds) lets two scrapes of the service's
    ``/metrics`` endpoint be diffed into rates.
    """

    counters: dict[str, int]
    histograms: tuple[HistogramSnapshot, ...] = ()
    timestamp: float = 0.0

    def counter(self, name: str) -> int:
        return self.counters.get(name, 0)

    def histogram(self, name: str, **labels) -> HistogramSnapshot | None:
        """The snapshot of one histogram series, if it was recorded."""
        wanted = tuple(sorted(labels.items()))
        for histogram in self.histograms:
            if histogram.name == name and histogram.labels == wanted:
                return histogram
        return None

    def to_dict(self) -> dict:
        """A JSON-compatible rendering (used by the service's /metrics)."""
        return {
            "timestamp": self.timestamp,
            "counters": dict(self.counters),
            "histograms": [
                histogram.to_dict() for histogram in self.histograms
            ],
        }


class _Stage:
    """The context :meth:`RuntimeMetrics.stage` returns.

    It stands in for the span it opens: ``set_attribute`` reaches the
    span, and ``cache_hit`` is also read here because the shared no-op
    span of the untraced path keeps no attributes.
    """

    __slots__ = (
        "_metrics", "_name", "_handle", "_span", "_started", "_cache_hit"
    )

    def __init__(
        self, metrics: "RuntimeMetrics", name: str, attributes: dict
    ) -> None:
        self._metrics = metrics
        self._name = name
        self._cache_hit = attributes.get("cache_hit", False)
        self._handle = tracing.span(name, **attributes)

    def __enter__(self) -> "_Stage":
        self._span = self._handle.__enter__()
        self._started = time.perf_counter()
        return self

    def set_attribute(self, name: str, value) -> None:
        if name == "cache_hit":
            self._cache_hit = value
        self._span.set_attribute(name, value)

    def __exit__(self, *exc_info) -> bool:
        ended = time.perf_counter()
        self._handle.__exit__(*exc_info)
        if not self._cache_hit:
            span = self._span
            seconds = (
                span.duration_seconds
                if span.is_recording
                else ended - self._started
            )
            self._metrics.observe("stage_seconds", seconds, stage=self._name)
        return False


class RuntimeMetrics:
    """Thread-safe counters and histograms."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, int] = {}
        self._histograms: dict[tuple, Histogram] = {}

    # -- counters --------------------------------------------------------

    def increment(self, name: str, by: int = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + by

    def counter(self, name: str) -> int:
        with self._lock:
            return self._counters.get(name, 0)

    # -- cache accounting -------------------------------------------------

    @property
    def cache_hits(self) -> int:
        return self.counter("cache_hits")

    @property
    def cache_misses(self) -> int:
        return self.counter("cache_misses")

    @property
    def cache_hit_rate(self) -> float:
        hits, misses = self.cache_hits, self.cache_misses
        total = hits + misses
        return hits / total if total else 0.0

    # -- histograms -------------------------------------------------------

    def observe(self, name: str, value: float, **labels) -> None:
        """Record one observation into the named histogram series.

        Labels distinguish series within a family, Prometheus-style:
        ``observe("stage_seconds", 0.2, stage="service.queue")``.
        """
        key = (name, tuple(sorted(labels.items())))
        with self._lock:
            histogram = self._histograms.get(key)
            if histogram is None:
                histogram = self._histograms[key] = Histogram(
                    name, labels=key[1]
                )
        histogram.observe(value)

    def histogram(self, name: str, **labels) -> HistogramSnapshot | None:
        key = (name, tuple(sorted(labels.items())))
        with self._lock:
            histogram = self._histograms.get(key)
        return histogram.snapshot() if histogram is not None else None

    # -- stages -----------------------------------------------------------

    def stage(self, name: str, **attributes) -> _Stage:
        """Time one layer: ``with metrics.stage("csg", database=...) as st:``.

        Opens ``tracing.span(name, **attributes)`` (the shared no-op span
        when tracing is off) and on exit records the block's duration
        once: as the span's ``duration_seconds`` and as one
        ``stage_seconds{stage=name}`` sample.  A block that ends marked
        ``cache_hit=True`` (opened so, and never flipped by
        ``st.set_attribute("cache_hit", False)``) keeps its span and
        records no sample.
        """
        return _Stage(self, name, attributes)

    # -- inspection -------------------------------------------------------

    def is_empty(self) -> bool:
        with self._lock:
            return not self._counters and not self._histograms

    def snapshot(self) -> MetricsSnapshot:
        with self._lock:
            histograms = list(self._histograms.values())
            return MetricsSnapshot(
                counters=dict(self._counters),
                histograms=tuple(
                    histogram.snapshot() for histogram in histograms
                ),
                timestamp=time.time(),
            )

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._histograms.clear()

    def render(self) -> str:
        """A plain-text summary, printed by the CLI and bench conftest."""
        snapshot = self.snapshot()
        lines = ["Runtime metrics"]
        if snapshot.counters:
            lines.append("  counters:")
            for name in sorted(snapshot.counters):
                lines.append(f"    {name:24s} {snapshot.counters[name]}")
            hits = snapshot.counter("cache_hits")
            misses = snapshot.counter("cache_misses")
            if hits + misses:
                lines.append(
                    f"    {'cache_hit_rate':24s} {hits / (hits + misses):.1%}"
                )
        latency_histograms = [h for h in snapshot.histograms if h.count]
        if latency_histograms:
            lines.append("  latency distributions (p50 / p95 / p99):")
            for histogram in latency_histograms:
                label = ",".join(f"{k}={v}" for k, v in histogram.labels)
                name = f"{histogram.name}{{{label}}}" if label else histogram.name
                lines.append(
                    f"    {name:40s} {histogram.p50:8.4f}s / "
                    f"{histogram.p95:8.4f}s / {histogram.p99:8.4f}s "
                    f"(n={histogram.count})"
                )
        if len(lines) == 1:
            lines.append("  (no activity recorded)")
        return "\n".join(lines)

    def __repr__(self) -> str:
        snapshot = self.snapshot()
        return (
            f"RuntimeMetrics({len(snapshot.counters)} counters, "
            f"{len(snapshot.histograms)} histogram series)"
        )
