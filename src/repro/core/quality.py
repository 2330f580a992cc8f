"""Expected result quality (Section 3.4).

"We defined two instances of expected quality, namely low effort (removal
of tuples) and high quality (updates)."  The task planners branch on this
to choose between alternative cleaning tasks (Example 3.5).
"""

from __future__ import annotations

import enum


class ResultQuality(enum.Enum):
    """The expected quality of the integration result."""

    LOW_EFFORT = "low_effort"
    HIGH_QUALITY = "high_quality"

    @property
    def label(self) -> str:
        return "low eff." if self is ResultQuality.LOW_EFFORT else "high qual."

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: The spellings :func:`parse_quality` accepts, with the quality each names.
_SPELLINGS = {
    "high": ResultQuality.HIGH_QUALITY,
    "high_quality": ResultQuality.HIGH_QUALITY,
    "low": ResultQuality.LOW_EFFORT,
    "low_effort": ResultQuality.LOW_EFFORT,
}


def parse_quality(quality: ResultQuality | str | None) -> ResultQuality:
    """The quality a request names; ``None`` asks for high quality.

    The one parser of quality names at the system's boundaries: the CLI,
    the scheduler and the HTTP front end.  Raises :class:`ValueError`
    for anything but a :class:`ResultQuality` or one of the names
    ``high``, ``high_quality``, ``low`` and ``low_effort``.
    """
    if quality is None:
        return ResultQuality.HIGH_QUALITY
    if isinstance(quality, ResultQuality):
        return quality
    try:
        return _SPELLINGS[quality]
    except (KeyError, TypeError):  # TypeError: an unhashable value
        raise ValueError(
            f"unknown quality {quality!r}; expected one of "
            f"{', '.join(_SPELLINGS)}"
        ) from None
