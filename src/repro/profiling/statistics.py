"""Column statistics of the value fit detector (Section 5.1).

Each statistic type implements a common protocol:

* :meth:`Statistic.compute` (classmethod) — aggregate a column of values,
  given as a sequence or as the :class:`ColumnSummary` that every
  statistic of one profile shares,
* :meth:`Statistic.importance` — how characteristic this statistic is for
  the *target* attribute (the importance score i(S_t(τ)) ∈ [0, 1]),
* :meth:`Statistic.fit` — to what extent a *source* statistic fits the
  target statistic (the fit value f(S_s(τ), S_t(τ)) ∈ [0, 1]).

The statistics mirror the paper's list: fill status, constancy, text
patterns, character histogram, string length, mean, numeric histogram,
value range, and top-k values.  Importance and fit are "specific to the
actual statistics"; the concrete formulas below follow the paper's
guidance where given (e.g. a single dominating text pattern ⇒ importance
near 1; many different patterns ⇒ importance near 0) and otherwise use
standard distribution-overlap measures.

Every statistic computes from a :class:`ColumnSummary` with per-distinct
work: text patterns come from one :func:`extract_patterns` call over the
column's distinct texts; casts run not at all where the column's value
types already are the datatype's, once per distinct value where equal
values cast alike, and otherwise through one caster looked up per
column; squared deviations, entropy terms and histogram bins are
computed once per distinct number or count.  Float sums still add in
row order, so every statistic is byte-identical to its per-value
definition, which the tests keep as the reference.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from collections import Counter
from collections.abc import Callable, Sequence

from ..relational.columnar import is_wide_int
from ..relational.datatypes import DataType, cast, is_native, try_cast_column
from ..relational.errors import TypeCastError
from .patterns import extract_patterns, generalize_pattern

__all__ = [
    "CharacterHistogram",
    "ColumnSummary",
    "Constancy",
    "FillStatus",
    "MeanStatistic",
    "NumericHistogram",
    "Statistic",
    "StringLengthStatistic",
    "TextPatternStatistic",
    "TopKValues",
    "ValueRange",
    "histogram_intersection",
    "shannon_entropy",
]


def shannon_entropy(frequencies: Sequence[float]) -> float:
    """Shannon entropy (bits) of a discrete distribution."""
    return -sum(p * math.log2(p) for p in frequencies if p > 0)


def histogram_intersection(
    left: dict[object, float], right: dict[object, float]
) -> float:
    """Σ min(p, q) over the union of keys — a standard overlap in [0, 1]."""
    keys = set(left) | set(right)
    return sum(min(left.get(key, 0.0), right.get(key, 0.0)) for key in keys)


def _bounded(value: float) -> float:
    return max(0.0, min(1.0, value))


def _to_float(value: object) -> float | None:
    """``value`` cast to FLOAT, or ``None`` when it cannot be."""
    try:
        return float(cast(value, DataType.FLOAT))
    except TypeCastError:
        return None


def _tie_text(value: object) -> str:
    """The text of a value in a column that holds an int too wide for
    decimal text, and the text that orders equally frequent top-k
    values: ``str``, or hex for such an int."""
    return format(value, "x") if is_wide_int(value) else str(value)


#: Every int of at most 640 decimal digits has decimal text at any
#: ``sys.set_int_max_str_digits`` setting (640 is the least it accepts),
#: so it casts to STRING.
_ALWAYS_DECIMAL = 10**640


def _mean_and_std(numbers: Sequence[float]) -> tuple[float, float]:
    """Mean and standard deviation of a non-empty column of numbers.

    Each ``(x - mean) ** 2`` is computed once per distinct ``x`` and the
    squares are summed in row order.  A column whose sum or squares
    overflow, such as one holding both -1e308 and 1e308, is computed over
    its values divided by their largest magnitude instead.
    """
    count = len(numbers)
    mean = sum(numbers) / count
    try:
        squares = {x: (x - mean) ** 2 for x in set(numbers)}
        variance = sum(map(squares.__getitem__, numbers)) / count
    except OverflowError:
        variance = math.inf
    if math.isfinite(mean) and math.isfinite(variance):
        return mean, math.sqrt(variance)
    scale = max(map(abs, numbers))
    scaled = [x / scale for x in numbers]
    mean = sum(scaled) / count
    variance = sum((x - mean) ** 2 for x in scaled) / count
    # Values in [-1, 1] deviate by at most 1; the clamp drops rounding
    # that would overflow at the largest scales.
    return mean * scale, min(math.sqrt(variance), 1.0) * scale


class ColumnSummary:
    """One column, counted once for all the statistics of its profile.

    Per-value work (text patterns, characters, casts) runs once per
    distinct value and is weighted by its count.  No key merges values
    whose ``str()`` or cast differs, such as ``0.0``/``-0.0`` or
    ``1``/``True``/``1.0``: text work is keyed on the ``str()`` itself,
    and casts are shared between equal values only in an :attr:`exact`
    column.  The column's set of value types, computed once, skips work
    that cannot change a value: an all-``str`` column's texts are its
    counts, an all-``int`` column's floats come from one ``map(float)``,
    and a column whose values already have a datatype's native type casts
    to it without a caster call, as does an all-``int`` column within
    ±10**640 to STRING.  An int too wide for decimal text takes its hex
    text, as in top-k ties.  Float sums stay in row order.  Each part is
    computed on first use.
    """

    def __init__(self, values: Sequence[object]) -> None:
        #: The column's values in row order, NULLs included.
        self.values = values

    @classmethod
    def of(cls, values: Sequence[object] | ColumnSummary) -> "ColumnSummary":
        """``values`` if it is a summary already, else its summary."""
        return values if isinstance(values, ColumnSummary) else cls(values)

    @functools.cached_property
    def non_null(self) -> list[object]:
        """The non-null values, in row order."""
        return [value for value in self.values if value is not None]

    @property
    def nulls(self) -> int:
        return len(self.values) - len(self.non_null)

    @functools.cached_property
    def types(self) -> frozenset[type]:
        """The exact Python types of the non-null values."""
        return frozenset(map(type, self.non_null))

    @functools.cached_property
    def counts(self) -> Counter[object]:
        """Count of each non-null value, in first-occurrence order."""
        return Counter(self.non_null)

    @functools.cached_property
    def int_bounds(self) -> tuple[int, int] | None:
        """The least and the greatest ``int`` value (``bool`` aside), or
        ``None`` when there is none."""
        if int not in self.types:
            return None
        ints = self.non_null
        if self.types != {int}:
            ints = [value for value in ints if type(value) is int]
        return min(ints), max(ints)

    @functools.cached_property
    def text_of(self) -> Callable[[object], str]:
        """The text of a value: ``str``, or :func:`_tie_text` in a column
        that holds an int too wide for decimal text, decided once from
        :attr:`int_bounds`."""
        bounds = self.int_bounds
        if bounds is not None and any(map(is_wide_int, bounds)):
            return _tie_text
        return str

    @functools.cached_property
    def texts(self) -> Counter[str]:
        """Count of each text (:attr:`text_of`) of a non-null value."""
        if self.types <= {str}:
            return self.counts  # str() of a str is the value itself
        return Counter(map(self.text_of, self.non_null))

    @functools.cached_property
    def exact(self) -> bool:
        """Whether equal values are identical, so that each key of
        :attr:`counts` stands for values of one ``str()`` and one cast:
        true when every value is a ``str``, or every value an ``int``."""
        return self.types <= {str} or self.types == {int}

    @functools.cached_property
    def numbers(self) -> list[float]:
        """The non-null values castable to FLOAT, cast, in row order."""
        if self.types == {int}:
            try:
                return list(map(float, self.non_null))
            except OverflowError:
                pass  # an int beyond float range: the casts refuse it
        if self.exact:
            memo = {value: _to_float(value) for value in self.counts}
            numbers = map(memo.__getitem__, self.non_null)
        else:
            numbers = try_cast_column(self.non_null, DataType.FLOAT)
        return [number for number in numbers if number is not None]


class Statistic:
    """Protocol base class for all statistic types."""

    #: Stable identifier used in reports and configuration.
    name: str = "statistic"

    @classmethod
    def compute(cls, values: Sequence[object] | ColumnSummary) -> "Statistic":
        """Aggregate a column: a sequence of values, or the summary every
        statistic of one column profile shares."""
        raise NotImplementedError

    def importance(self) -> float:
        """Importance score of this statistic *as a target statistic*."""
        raise NotImplementedError

    def fit(self, source: "Statistic") -> float:
        """Fit of ``source`` (same statistic type) into this target statistic."""
        raise NotImplementedError


# ----------------------------------------------------------------------
# Fill status
# ----------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class FillStatus(Statistic):
    """Null count plus count of values not castable to a target datatype."""

    name = "fill_status"

    total: int
    nulls: int
    uncastable: int

    @classmethod
    def compute(
        cls,
        values: Sequence[object] | ColumnSummary,
        datatype: DataType = DataType.STRING,
    ) -> "FillStatus":
        summary = ColumnSummary.of(values)
        # A non-null value casts to None only when it cannot be cast.
        if is_native(summary.types, datatype) or (
            datatype is DataType.STRING
            and summary.types == {int}
            and -_ALWAYS_DECIMAL < summary.int_bounds[0]
            and summary.int_bounds[1] < _ALWAYS_DECIMAL
        ):
            uncastable = 0
        elif summary.exact:
            counts = summary.counts
            casts = try_cast_column(counts, datatype)
            uncastable = sum(
                count
                for cast_value, count in zip(casts, counts.values())
                if cast_value is None
            )
        else:
            uncastable = try_cast_column(summary.non_null, datatype).count(None)
        return cls(
            total=len(summary.values),
            nulls=summary.nulls,
            uncastable=uncastable,
        )

    @property
    def filled_fraction(self) -> float:
        """Fraction of values that are non-null *and* castable."""
        if not self.total:
            return 0.0
        return (self.total - self.nulls - self.uncastable) / self.total

    @property
    def non_null_fraction(self) -> float:
        """Fraction of values that are present, castable or not."""
        if not self.total:
            return 0.0
        return (self.total - self.nulls) / self.total

    @property
    def incompatible_fraction(self) -> float:
        if not self.total:
            return 0.0
        return self.uncastable / self.total

    def importance(self) -> float:
        # A near-complete target column strongly characterises the target.
        return self.filled_fraction

    def fit(self, source: "Statistic") -> float:
        assert isinstance(source, FillStatus)
        # The source fits if it is at least as complete as the target.
        if self.filled_fraction == 0.0:
            return 1.0
        return _bounded(source.filled_fraction / self.filled_fraction)


# ----------------------------------------------------------------------
# Constancy
# ----------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Constancy(Statistic):
    """Inverse of (normalised) Shannon entropy — detects discrete domains.

    ``constancy`` is 1 for a constant column, 0 for an all-distinct one.
    """

    name = "constancy"

    constancy: float
    distinct_count: int
    total: int

    #: Columns with constancy above this are considered domain-restricted.
    DOMAIN_THRESHOLD = 0.5
    #: ... or with at most this many distinct values.
    DOMAIN_MAX_DISTINCT = 20

    @classmethod
    def compute(cls, values: Sequence[object] | ColumnSummary) -> "Constancy":
        summary = ColumnSummary.of(values)
        total = len(summary.non_null)
        counts = summary.counts
        distinct = len(counts)
        if total <= 1 or distinct <= 1:
            return cls(constancy=1.0, distinct_count=distinct, total=total)
        # shannon_entropy's p * log2(p), computed once per distinct count
        # and added in the same order as over every value's frequency.
        terms = {}
        for count in set(counts.values()):
            p = count / total
            terms[count] = p * math.log2(p)
        entropy = -sum(map(terms.__getitem__, counts.values()))
        max_entropy = math.log2(total)
        return cls(
            constancy=_bounded(1.0 - entropy / max_entropy),
            distinct_count=distinct,
            total=total,
        )

    @property
    def is_domain_restricted(self) -> bool:
        """Whether the values plausibly come from a small discrete domain."""
        if self.total == 0:
            return False
        if self.distinct_count <= self.DOMAIN_MAX_DISTINCT < self.total:
            return True
        return self.constancy >= self.DOMAIN_THRESHOLD

    def importance(self) -> float:
        return self.constancy

    def fit(self, source: "Statistic") -> float:
        assert isinstance(source, Constancy)
        return _bounded(1.0 - abs(source.constancy - self.constancy))


# ----------------------------------------------------------------------
# Text patterns
# ----------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class TextPatternStatistic(Statistic):
    """Relative frequencies of string shape patterns."""

    name = "text_pattern"

    distribution: tuple[tuple[str, float], ...]

    @classmethod
    def compute(
        cls, values: Sequence[object] | ColumnSummary
    ) -> "TextPatternStatistic":
        texts = ColumnSummary.of(values).texts
        counts: Counter[str] = Counter()
        for pattern, count in zip(extract_patterns(list(texts)), texts.values()):
            counts[pattern] += count
        total = sum(counts.values())
        distribution = tuple(
            sorted(
                ((pattern, count / total) for pattern, count in counts.items()),
                key=lambda item: (-item[1], item[0]),
            )
            if total
            else ()
        )
        return cls(distribution=distribution)

    def as_dict(self) -> dict[str, float]:
        return dict(self.distribution)

    @property
    def dominant_share(self) -> float:
        return self.distribution[0][1] if self.distribution else 0.0

    def generalized(self) -> dict[str, float]:
        """The distribution over word-structure-collapsed patterns."""
        distribution: dict[str, float] = {}
        for pattern, share in self.distribution:
            key = generalize_pattern(pattern)
            distribution[key] = distribution.get(key, 0.0) + share
        return distribution

    def importance(self) -> float:
        # One dominating pattern ("all values look like N:N") is a strong
        # target characteristic; many patterns make the statistic useless.
        return self.dominant_share

    def fit(self, source: "Statistic") -> float:
        assert isinstance(source, TextPatternStatistic)
        if not self.distribution or not source.distribution:
            return 1.0  # nothing to compare — vacuously fitting
        exact = histogram_intersection(source.as_dict(), self.as_dict())
        coarse = histogram_intersection(source.generalized(), self.generalized())
        # Free text fits free text even when word counts differ, so the
        # word-structure-agnostic overlap carries most of the weight; the
        # exact overlap rewards truly identical formats.
        return _bounded(0.2 * exact + 0.8 * coarse)


# ----------------------------------------------------------------------
# Character histogram
# ----------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class CharacterHistogram(Statistic):
    """Relative occurrence of characters over all values of a column."""

    name = "char_histogram"

    distribution: tuple[tuple[str, float], ...]

    @classmethod
    def compute(
        cls, values: Sequence[object] | ColumnSummary
    ) -> "CharacterHistogram":
        # Texts that occur equally often are joined and counted in one pass.
        by_count: dict[int, list[str]] = {}
        for text, count in ColumnSummary.of(values).texts.items():
            by_count.setdefault(count, []).append(text)
        counts: Counter[str] = Counter()
        for count, texts in by_count.items():
            for char, occurrences in Counter("".join(texts)).items():
                counts[char] += occurrences * count
        total = sum(counts.values())
        distribution = tuple(
            sorted(
                ((char, count / total) for char, count in counts.items()),
                key=lambda item: (-item[1], item[0]),
            )
            if total
            else ()
        )
        return cls(distribution=distribution)

    def as_dict(self) -> dict[str, float]:
        return dict(self.distribution)

    def importance(self) -> float:
        # Concentrated alphabets (digits + one separator) characterise the
        # target better than free text; use inverse normalised entropy.
        distribution = self.as_dict()
        if len(distribution) <= 1:
            return 1.0 if distribution else 0.0
        entropy = shannon_entropy(list(distribution.values()))
        return _bounded(1.0 - entropy / math.log2(len(distribution)) * 0.5)

    def fit(self, source: "Statistic") -> float:
        assert isinstance(source, CharacterHistogram)
        if not self.distribution or not source.distribution:
            return 1.0  # nothing to compare — vacuously fitting
        return _bounded(
            histogram_intersection(source.as_dict(), self.as_dict())
        )


# ----------------------------------------------------------------------
# String length
# ----------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class StringLengthStatistic(Statistic):
    """Average string length and its standard deviation."""

    name = "string_length"

    mean: float
    std: float
    count: int

    @classmethod
    def compute(
        cls, values: Sequence[object] | ColumnSummary
    ) -> "StringLengthStatistic":
        summary = ColumnSummary.of(values)
        texts = summary.non_null
        if not summary.types <= {str}:
            texts = map(summary.text_of, texts)
        lengths = list(map(len, texts))
        if not lengths:
            return cls(mean=0.0, std=0.0, count=0)
        mean, std = _mean_and_std(lengths)
        return cls(mean=mean, std=std, count=len(lengths))

    def importance(self) -> float:
        # A tight length distribution (small coefficient of variation) is a
        # strong characteristic.
        if self.count == 0 or self.mean == 0:
            return 0.0
        return _bounded(1.0 / (1.0 + self.std / self.mean * 4.0))

    def fit(self, source: "Statistic") -> float:
        assert isinstance(source, StringLengthStatistic)
        if self.count == 0 or source.count == 0:
            return 1.0
        tolerance = max(self.std, 0.15 * self.mean, 0.5)
        deviation = abs(source.mean - self.mean) / tolerance
        return _bounded(math.exp(-0.5 * deviation))


# ----------------------------------------------------------------------
# Mean (numeric)
# ----------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class MeanStatistic(Statistic):
    """Mean and standard deviation of a numeric column."""

    name = "mean"

    mean: float
    std: float
    count: int

    @classmethod
    def compute(
        cls, values: Sequence[object] | ColumnSummary
    ) -> "MeanStatistic":
        numeric = ColumnSummary.of(values).numbers
        if not numeric:
            return cls(mean=0.0, std=0.0, count=0)
        mean, std = _mean_and_std(numeric)
        return cls(mean=mean, std=std, count=len(numeric))

    def importance(self) -> float:
        if self.count == 0:
            return 0.0
        scale = abs(self.mean) if self.mean else 1.0
        return _bounded(1.0 / (1.0 + self.std / scale))

    def fit(self, source: "Statistic") -> float:
        assert isinstance(source, MeanStatistic)
        if self.count == 0 or source.count == 0:
            return 1.0
        tolerance = max(self.std, abs(self.mean) * 0.1, 1e-9)
        deviation = abs(source.mean - self.mean) / tolerance
        return _bounded(math.exp(-0.5 * deviation))


# ----------------------------------------------------------------------
# Numeric histogram
# ----------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class NumericHistogram(Statistic):
    """Equi-width histogram of a numeric column.

    Bins are anchored on *this* statistic's own range; :meth:`fit` re-bins
    the source values into the target's bins, so comparing two histograms
    is meaningful even when the raw ranges differ.
    """

    name = "histogram"

    lo: float
    hi: float
    bins: tuple[float, ...]
    count: int

    BIN_COUNT = 10

    @classmethod
    def compute(
        cls, values: Sequence[object] | ColumnSummary
    ) -> "NumericHistogram":
        numeric = ColumnSummary.of(values).numbers
        if not numeric:
            return cls(lo=0.0, hi=0.0, bins=(), count=0)
        lo, hi = min(numeric), max(numeric)
        counts: Counter[int] = Counter()
        for value, count in Counter(numeric).items():
            counts[cls._bin_index(value, lo, hi)] += count
        total = len(numeric)
        return cls(
            lo=lo,
            hi=hi,
            bins=tuple(counts[index] / total for index in range(cls.BIN_COUNT)),
            count=total,
        )

    @staticmethod
    def _bin_index(value: float, lo: float, hi: float) -> int:
        if hi == lo:
            return 0
        span = hi - lo
        if math.isinf(span):
            # The range is wider than the largest float: halve every term.
            value, lo, span = value / 2, lo / 2, hi / 2 - lo / 2
        position = (value - lo) / span
        return min(int(position * NumericHistogram.BIN_COUNT),
                   NumericHistogram.BIN_COUNT - 1)

    def rebin(self, source: "NumericHistogram") -> tuple[float, ...]:
        """Project the source distribution onto this histogram's bins;
        source mass outside this range is dropped (it cannot overlap)."""
        if not source.count or not self.count:
            return ()
        counts = [0.0] * self.BIN_COUNT
        # A range wider than the largest float is walked at half scale.
        scale = 0.5 if math.isinf(source.hi - source.lo) else 1.0
        source_lo = source.lo * scale
        source_width = (source.hi * scale - source_lo) / max(len(source.bins), 1)
        for index, share in enumerate(source.bins):
            midpoint = (source_lo + (index + 0.5) * source_width) / scale
            if self.lo <= midpoint <= self.hi:
                counts[self._bin_index(midpoint, self.lo, self.hi)] += share
        return tuple(counts)

    def importance(self) -> float:
        return 0.5 if self.count else 0.0

    def fit(self, source: "Statistic") -> float:
        assert isinstance(source, NumericHistogram)
        if self.count == 0 or source.count == 0:
            return 1.0
        projected = self.rebin(source)
        return _bounded(
            sum(
                min(share, projected[index])
                for index, share in enumerate(self.bins)
            )
        )


# ----------------------------------------------------------------------
# Value range
# ----------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class ValueRange(Statistic):
    """Minimum and maximum of a numeric column."""

    name = "value_range"

    lo: float
    hi: float
    count: int

    @classmethod
    def compute(cls, values: Sequence[object] | ColumnSummary) -> "ValueRange":
        numeric = ColumnSummary.of(values).numbers
        if not numeric:
            return cls(lo=0.0, hi=0.0, count=0)
        return cls(lo=min(numeric), hi=max(numeric), count=len(numeric))

    def importance(self) -> float:
        return 0.6 if self.count else 0.0

    def fit(self, source: "Statistic") -> float:
        assert isinstance(source, ValueRange)
        if self.count == 0 or source.count == 0:
            return 1.0
        overlap_lo = max(self.lo, source.lo)
        overlap_hi = min(self.hi, source.hi)
        source_span = source.hi - source.lo
        if source_span == 0:
            return 1.0 if self.lo <= source.lo <= self.hi else 0.0
        return _bounded((overlap_hi - overlap_lo) / source_span)


# ----------------------------------------------------------------------
# Top-k values
# ----------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class TopKValues(Statistic):
    """The k most frequent values with their relative frequencies."""

    name = "top_k"

    entries: tuple[tuple[object, float], ...]
    coverage: float
    count: int

    K = 10

    @classmethod
    def compute(cls, values: Sequence[object] | ColumnSummary) -> "TopKValues":
        summary = ColumnSummary.of(values)
        counts = summary.counts
        total = len(summary.non_null)
        if not total:
            return cls(entries=(), coverage=0.0, count=0)
        top = counts.most_common(cls.K)
        entries = tuple(
            sorted(
                ((value, count / total) for value, count in top),
                key=lambda item: (-item[1], _tie_text(item[0])),
            )
        )
        return cls(
            entries=entries,
            coverage=_bounded(sum(share for _, share in entries)),
            count=total,
        )

    def values(self) -> set[object]:
        return {value for value, _ in self.entries}

    def importance(self) -> float:
        # Only meaningful when the top-k actually covers the column, i.e.
        # for discrete domains; quadratic damping keeps incidental partial
        # coverage of free-text columns from dragging the overall fit.
        return self.coverage**2

    def fit(self, source: "Statistic") -> float:
        assert isinstance(source, TopKValues)
        if not self.entries or not source.entries or source.coverage == 0:
            return 1.0
        target_values = self.values()
        overlap = sum(
            share for value, share in source.entries if value in target_values
        )
        # Normalise by the source's own top-k mass: "of the source's most
        # frequent values, how many live in the target's domain?"
        return _bounded(overlap / source.coverage)
