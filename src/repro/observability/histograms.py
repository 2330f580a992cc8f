"""Fixed log-scale histograms with quantile summaries.

Latency distributions under the service's worker slots are
long-tailed; counters and summed stage timings cannot
answer "what is the p95 detector latency under 4 clients?".
:class:`Histogram` records observations into **fixed log-scale buckets**
(factor-2 bounds from 1 microsecond up, the classic power-of-two latency
ladder), so

* recording is O(1) and lock-cheap — a bisect plus two adds,
* every histogram shares one bucket ladder, directly exportable to
  Prometheus's cumulative ``_bucket{le=...}`` exposition,
* p50/p95/p99 are estimated by linear interpolation inside the bucket
  that contains the target rank, which is exact enough at factor-2
  resolution for dashboard use.
"""

from __future__ import annotations

import bisect
import dataclasses
import threading

#: Factor-2 bucket upper bounds from 1µs to ~1100s; values above the last
#: bound land in the implicit +Inf bucket.
DEFAULT_BOUNDS: tuple[float, ...] = tuple(
    1e-6 * (2.0**exponent) for exponent in range(31)
)

#: The quantiles every summary reports.
SUMMARY_QUANTILES = (0.5, 0.95, 0.99)


@dataclasses.dataclass(frozen=True)
class HistogramSnapshot:
    """An immutable copy of one histogram, with derived statistics.

    ``counts`` has ``len(bounds) + 1`` entries: one per finite bucket
    plus the +Inf overflow bucket.
    """

    name: str
    labels: tuple[tuple[str, str], ...]
    bounds: tuple[float, ...]
    counts: tuple[int, ...]
    count: int
    sum: float
    min: float
    max: float

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimated value at quantile ``q`` (0 < q <= 1).

        Interpolates linearly within the bucket containing the target
        rank; results are clamped to the observed min/max so tiny sample
        counts do not report values outside the data.
        """
        if self.count == 0:
            return 0.0
        target = q * self.count
        seen = 0
        for index, bucket_count in enumerate(self.counts):
            if bucket_count == 0:
                continue
            if seen + bucket_count >= target:
                lower = self.bounds[index - 1] if index > 0 else 0.0
                upper = (
                    self.bounds[index]
                    if index < len(self.bounds)
                    else self.max
                )
                fraction = (target - seen) / bucket_count
                value = lower + (upper - lower) * fraction
                return min(max(value, self.min), self.max)
            seen += bucket_count
        return self.max

    @property
    def p50(self) -> float:
        return self.quantile(0.5)

    @property
    def p95(self) -> float:
        return self.quantile(0.95)

    @property
    def p99(self) -> float:
        return self.quantile(0.99)

    def cumulative_buckets(self) -> list[tuple[float, int]]:
        """Prometheus-style ``(upper_bound, cumulative_count)`` pairs,
        ending with ``(inf, count)``."""
        pairs: list[tuple[float, int]] = []
        running = 0
        for bound, bucket_count in zip(self.bounds, self.counts):
            running += bucket_count
            pairs.append((bound, running))
        pairs.append((float("inf"), self.count))
        return pairs

    def to_dict(self) -> dict:
        """A JSON rendering: identity, totals, quantiles, non-empty
        buckets (full fixed-bucket vectors are mostly zeros)."""
        return {
            "name": self.name,
            "labels": dict(self.labels),
            "count": self.count,
            "sum": self.sum,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "mean": self.mean,
            "quantiles": {
                f"p{int(q * 100)}": self.quantile(q) for q in SUMMARY_QUANTILES
            },
            "buckets": [
                {"le": bound, "count": bucket_count}
                for bound, bucket_count in zip(
                    (*self.bounds, float("inf")), self.counts
                )
                if bucket_count
            ],
        }


class Histogram:
    """A thread-safe histogram of one metric series over
    :data:`DEFAULT_BOUNDS`."""

    __slots__ = ("name", "labels", "_counts", "_count", "_sum", "_min",
                 "_max", "_lock")

    def __init__(
        self,
        name: str,
        labels: tuple[tuple[str, str], ...] = (),
    ) -> None:
        self.name = name
        self.labels = labels
        self._counts = [0] * (len(DEFAULT_BOUNDS) + 1)
        self._count = 0
        self._sum = 0.0
        self._min = float("inf")
        self._max = float("-inf")
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        index = bisect.bisect_left(DEFAULT_BOUNDS, value)
        with self._lock:
            self._counts[index] += 1
            self._count += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value

    def snapshot(self) -> HistogramSnapshot:
        with self._lock:
            return HistogramSnapshot(
                name=self.name,
                labels=self.labels,
                bounds=DEFAULT_BOUNDS,
                counts=tuple(self._counts),
                count=self._count,
                sum=self._sum,
                min=self._min if self._count else 0.0,
                max=self._max if self._count else 0.0,
            )

    def __len__(self) -> int:
        with self._lock:
            return self._count

    def __repr__(self) -> str:
        snapshot = self.snapshot()
        return (
            f"Histogram({self.name!r}, n={snapshot.count}, "
            f"p50={snapshot.p50:.4g}, p95={snapshot.p95:.4g})"
        )
