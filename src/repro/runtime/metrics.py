"""Lightweight runtime instrumentation.

The assessment runtime (ROADMAP: "as fast as the hardware allows") needs
to be observable before it can be tuned: every :class:`RuntimeMetrics`
instance collects named counters (cache hits/misses, detector runs, task
counts), per-stage timings, and labelled log-scale **histograms**
(:mod:`repro.observability.histograms`) so latency distributions —
p50/p95/p99 per stage, per detector, per service-job phase — survive
aggregation.  All operations are thread-safe because the service's
worker slots update one runtime's metrics from several threads.

Stage timings distinguish three numbers that diverge under concurrency:

* ``seconds`` — summed per-call *work* time (can exceed elapsed time),
* ``wall_seconds`` — elapsed *latency* from the first concurrent entry
  to the last exit of the stage,
* ``max_seconds`` — the longest single call.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from collections.abc import Iterator
from contextlib import contextmanager

from ..observability.histograms import (
    DEFAULT_BOUNDS,
    Histogram,
    HistogramSnapshot,
)


@dataclasses.dataclass
class StageTiming:
    """Accumulated timing of one named pipeline stage.

    For stages executed concurrently ``seconds`` sums the per-task times
    and so can exceed elapsed time — it measures *work*.  The latency
    view is ``wall_seconds`` (time from first entry to last exit across
    overlapping calls) and ``max_seconds`` (worst single call).
    """

    calls: int = 0
    seconds: float = 0.0
    max_seconds: float = 0.0
    wall_seconds: float = 0.0

    @property
    def mean_seconds(self) -> float:
        return self.seconds / self.calls if self.calls else 0.0


#: Canonical key shape for one labelled metric series.
LabelSet = tuple[tuple[str, str], ...]


def _label_key(labels: dict) -> LabelSet:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


@dataclasses.dataclass(frozen=True)
class MetricsSnapshot:
    """An immutable copy of the metrics at one point in time.

    ``timestamp`` (unix seconds) lets two scrapes of the service's
    ``/metrics`` endpoint be diffed into rates.  ``counters`` holds the
    unlabelled counters; labelled series (``fleet_failovers`` by
    ``reason``, fleet gauges by ``worker``) live in ``counter_series``
    and ``gauges`` as ``(name, labels, value)`` triples.
    """

    counters: dict[str, int]
    stages: dict[str, StageTiming]
    histograms: tuple[HistogramSnapshot, ...] = ()
    timestamp: float = 0.0
    counter_series: tuple[tuple[str, LabelSet, int], ...] = ()
    gauges: tuple[tuple[str, LabelSet, float], ...] = ()

    def counter(self, name: str, **labels) -> int:
        """The counter's value: one labelled series, or — with no labels
        given — the sum over the unlabelled counter and every series."""
        if labels:
            wanted = _label_key(labels)
            for series_name, series_labels, value in self.counter_series:
                if series_name == name and series_labels == wanted:
                    return value
            return 0
        total = self.counters.get(name, 0)
        for series_name, _, value in self.counter_series:
            if series_name == name:
                total += value
        return total

    def gauge(self, name: str, **labels) -> float | None:
        wanted = _label_key(labels)
        for gauge_name, gauge_labels, value in self.gauges:
            if gauge_name == name and gauge_labels == wanted:
                return value
        return None

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
            "counter_series": [
                {"name": name, "labels": dict(labels), "value": value}
                for name, labels, value in self.counter_series
            ],
            "gauges": [
                {"name": name, "labels": dict(labels), "value": value}
                for name, labels, value in self.gauges
            ],
            "stages": {
                name: {
                    "calls": timing.calls,
                    "seconds": timing.seconds,
                    "mean_seconds": timing.mean_seconds,
                    "max_seconds": timing.max_seconds,
                    "wall_seconds": timing.wall_seconds,
                }
                for name, timing in self.stages.items()
            },
            "histograms": [
                histogram.to_dict() for histogram in self.histograms
            ],
        }


def _histogram_from_dict(doc: dict) -> HistogramSnapshot | None:
    """Rebuild one histogram snapshot from its sparse JSON form.

    ``to_dict`` keeps only non-empty buckets; the counts vector is
    re-expanded against :data:`DEFAULT_BOUNDS`.  Histograms recorded
    with custom bounds cannot be reconstructed from the sparse form and
    yield ``None`` (the caller skips them).
    """
    bounds = DEFAULT_BOUNDS
    index_of = {bound: index for index, bound in enumerate(bounds)}
    index_of[float("inf")] = len(bounds)
    counts = [0] * (len(bounds) + 1)
    for bucket in doc.get("buckets", ()):
        index = index_of.get(float(bucket["le"]))
        if index is None:
            return None
        counts[index] = int(bucket["count"])
    count = int(doc.get("count", 0))
    return HistogramSnapshot(
        name=str(doc["name"]),
        labels=_label_key(doc.get("labels", {})),
        bounds=bounds,
        counts=tuple(counts),
        count=count,
        sum=float(doc.get("sum", 0.0)),
        min=float(doc.get("min", 0.0)) if count else 0.0,
        max=float(doc.get("max", 0.0)) if count else 0.0,
    )


def snapshot_from_dict(doc: dict) -> MetricsSnapshot:
    """The inverse of :meth:`MetricsSnapshot.to_dict`.

    Lets a snapshot cross a process boundary as JSON — a fleet worker
    ships ``snapshot().to_dict()`` inside its heartbeat and the
    supervisor rebuilds it here before handing it to
    :meth:`RuntimeMetrics.merge_snapshot`.  Histogram series whose sparse bucket bounds are not the default
    log-scale ladder are dropped rather than misreconstructed; raises
    ``ValueError``/``KeyError``/``TypeError`` on a structurally torn
    document so callers can discard the whole blob.
    """
    histograms = []
    for histogram_doc in doc.get("histograms", ()):
        histogram = _histogram_from_dict(histogram_doc)
        if histogram is not None:
            histograms.append(histogram)
    return MetricsSnapshot(
        counters={
            str(name): int(value)
            for name, value in doc.get("counters", {}).items()
        },
        stages={
            str(name): StageTiming(
                calls=int(stage.get("calls", 0)),
                seconds=float(stage.get("seconds", 0.0)),
                max_seconds=float(stage.get("max_seconds", 0.0)),
                wall_seconds=float(stage.get("wall_seconds", 0.0)),
            )
            for name, stage in doc.get("stages", {}).items()
        },
        histograms=tuple(histograms),
        timestamp=float(doc.get("timestamp", 0.0)),
        counter_series=tuple(
            (
                str(series["name"]),
                _label_key(series.get("labels", {})),
                int(series["value"]),
            )
            for series in doc.get("counter_series", ())
        ),
        gauges=tuple(
            (
                str(series["name"]),
                _label_key(series.get("labels", {})),
                float(series["value"]),
            )
            for series in doc.get("gauges", ())
        ),
    )


class RuntimeMetrics:
    """Thread-safe counters, stage timings, and histograms."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, int] = {}
        self._counter_series: dict[tuple[str, LabelSet], int] = {}
        self._gauges: dict[tuple[str, LabelSet], float] = {}
        self._stages: dict[str, StageTiming] = {}
        #: Wall-clock bookkeeping per stage: [active_calls, entered_perf].
        self._stage_active: dict[str, list] = {}
        self._histograms: dict[tuple, Histogram] = {}

    # -- counters --------------------------------------------------------

    def increment(self, name: str, by: int = 1, **labels) -> None:
        """Bump a counter; labels select a series within the family
        (``increment("fleet_failovers", reason="liveness")``)."""
        if labels:
            key = (name, _label_key(labels))
            with self._lock:
                self._counter_series[key] = (
                    self._counter_series.get(key, 0) + by
                )
            return
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + by

    def counter(self, name: str, **labels) -> int:
        """One labelled series, or — without labels — the family total
        (unlabelled counter plus every labelled series)."""
        with self._lock:
            if labels:
                return self._counter_series.get((name, _label_key(labels)), 0)
            total = self._counters.get(name, 0)
            for (series_name, _), value in self._counter_series.items():
                if series_name == name:
                    total += value
            return total

    # -- gauges -----------------------------------------------------------

    def set_gauge(self, name: str, value: float, **labels) -> None:
        """Set a point-in-time gauge (process RSS, slot utilisation, SLO
        burn rate); last write wins."""
        with self._lock:
            self._gauges[(name, _label_key(labels))] = float(value)

    def gauge(self, name: str, **labels) -> float | None:
        with self._lock:
            return self._gauges.get((name, _label_key(labels)))

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
        ``observe("detector_seconds", 0.2, detector="mapping")``.
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

    # -- stage timings ----------------------------------------------------

    def record_stage(self, name: str, seconds: float) -> None:
        with self._lock:
            timing = self._stages.get(name)
            if timing is None:
                timing = self._stages[name] = StageTiming()
            timing.calls += 1
            timing.seconds += seconds
            if seconds > timing.max_seconds:
                timing.max_seconds = seconds
        self.observe("stage_seconds", seconds, stage=name)

    @contextmanager
    def time_stage(self, name: str) -> Iterator[None]:
        started = time.perf_counter()
        with self._lock:
            active = self._stage_active.get(name)
            if active is None or active[0] == 0:
                self._stage_active[name] = [1, started]
            else:
                active[0] += 1
        try:
            yield
        finally:
            ended = time.perf_counter()
            self.record_stage(name, ended - started)
            with self._lock:
                active = self._stage_active[name]
                active[0] -= 1
                if active[0] == 0:
                    timing = self._stages[name]
                    timing.wall_seconds += ended - active[1]

    def stage(self, name: str) -> StageTiming:
        with self._lock:
            timing = self._stages.get(name, StageTiming())
            return dataclasses.replace(timing)

    # -- inspection -------------------------------------------------------

    def is_empty(self) -> bool:
        with self._lock:
            return (
                not self._counters
                and not self._counter_series
                and not self._stages
                and not self._histograms
            )

    def snapshot(self) -> MetricsSnapshot:
        with self._lock:
            histograms = list(self._histograms.values())
            return MetricsSnapshot(
                counters=dict(self._counters),
                stages={
                    name: dataclasses.replace(timing)
                    for name, timing in self._stages.items()
                },
                histograms=tuple(
                    histogram.snapshot() for histogram in histograms
                ),
                timestamp=time.time(),
                counter_series=tuple(
                    (name, labels, value)
                    for (name, labels), value in sorted(
                        self._counter_series.items()
                    )
                ),
                gauges=tuple(
                    (name, labels, value)
                    for (name, labels), value in sorted(self._gauges.items())
                ),
            )

    def merge_snapshot(self, snapshot: MetricsSnapshot) -> None:
        """Fold another instance's snapshot into this one.

        The supervisor-side half of fleet telemetry: a worker ships a
        :class:`MetricsSnapshot` of its process-local metrics and the
        supervisor adds counters, accumulates stage timings (work sums
        and call counts add; ``max_seconds`` takes the max —
        ``wall_seconds`` also adds, so it reads as per-process elapsed,
        not fleet latency), and merges histograms bucket-wise.  Gauges
        are *not* merged — they are point-in-time and per-process.
        """
        for name, value in snapshot.counters.items():
            if value:
                self.increment(name, by=value)
        for name, labels, value in snapshot.counter_series:
            if value:
                key = (name, labels)
                with self._lock:
                    self._counter_series[key] = (
                        self._counter_series.get(key, 0) + value
                    )
        for name, timing in snapshot.stages.items():
            with self._lock:
                mine = self._stages.get(name)
                if mine is None:
                    mine = self._stages[name] = StageTiming()
                mine.calls += timing.calls
                mine.seconds += timing.seconds
                mine.wall_seconds += timing.wall_seconds
                if timing.max_seconds > mine.max_seconds:
                    mine.max_seconds = timing.max_seconds
        for histogram_snapshot in snapshot.histograms:
            key = (histogram_snapshot.name, histogram_snapshot.labels)
            with self._lock:
                histogram = self._histograms.get(key)
                if histogram is None:
                    histogram = self._histograms[key] = Histogram(
                        histogram_snapshot.name,
                        labels=histogram_snapshot.labels,
                        bounds=histogram_snapshot.bounds,
                    )
            histogram.merge(histogram_snapshot)

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._counter_series.clear()
            self._gauges.clear()
            self._stages.clear()
            self._stage_active.clear()
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
        if snapshot.counter_series:
            lines.append("  labelled counters:")
            for name, labels, value in snapshot.counter_series:
                rendered = ",".join(f"{k}={v}" for k, v in labels)
                lines.append(f"    {name}{{{rendered}}} {value}")
        if snapshot.stages:
            lines.append("  stages (work | wall latency | worst call):")
            for name in sorted(snapshot.stages):
                timing = snapshot.stages[name]
                lines.append(
                    f"    {name:24s} {timing.seconds:8.3f}s | "
                    f"{timing.wall_seconds:8.3f}s | "
                    f"{timing.max_seconds:8.3f}s over {timing.calls} call(s)"
                )
        latency_histograms = [
            h for h in snapshot.histograms if h.count and h.name != "stage_seconds"
        ]
        if latency_histograms:
            lines.append("  latency distributions (p50 / p95 / p99):")
            for histogram in latency_histograms:
                label = ",".join(f"{k}={v}" for k, v in histogram.labels)
                name = f"{histogram.name}{{{label}}}" if label else histogram.name
                lines.append(
                    f"    {name:36s} {histogram.p50:8.4f}s / "
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
            f"{len(snapshot.stages)} stages, "
            f"{len(snapshot.histograms)} histogram series)"
        )
