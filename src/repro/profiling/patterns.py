"""Text pattern extraction for the text-pattern statistic (Section 5.1).

A pattern abstracts a string into a shape token: runs of digits become
``N``, runs of letters become ``A``, runs of whitespace become ``_``, and
punctuation is kept verbatim.  The paper's example renders the duration
values ``"4:43"`` as the pattern ``[number ":" number]`` — here ``N:N`` —
while the source lengths ``215900`` all share the pattern ``N``.

:func:`extract_pattern` is the per-string definition and the reference.
:func:`extract_patterns` computes a whole column's patterns at once with
C-level string operations: the texts are joined with NUL (``\\x00``), one
``str.translate`` maps every character to its token, three regex passes
collapse the runs of ``N``, ``A`` and ``_``, and a split undoes the join.
A literal ``N`` or ``A`` is a letter and a literal ``_`` shares the space
token, so after the translation every ``N``, ``A`` and ``_`` is a token
and collapsing runs of them is exactly what the per-string loop does.
"""

from __future__ import annotations

import re
from collections import Counter
from collections.abc import Iterable, Sequence

DIGIT_TOKEN = "N"
LETTER_TOKEN = "A"
SPACE_TOKEN = "_"

#: Joins a column's texts for one translation; a column with a text that
#: contains it is patterned string by string.
_SEPARATOR = "\x00"
#: Code points below this are cached in the token table (at most 65,536
#: entries); astral characters are classified on every use.
_CACHED_CODE_POINTS = 0x10000
_RUNS = (
    (re.compile("NN+"), DIGIT_TOKEN),
    (re.compile("AA+"), LETTER_TOKEN),
    (re.compile("__+"), SPACE_TOKEN),
)


class _TokenTable(dict):
    """Code point → token for ``str.translate``, classified on first use
    by the tests :func:`extract_pattern` makes, in the same order."""

    def __missing__(self, code_point: int) -> str:
        char = chr(code_point)
        if char.isdigit():
            token = DIGIT_TOKEN
        elif char.isalpha():
            token = LETTER_TOKEN
        elif char.isspace():
            token = SPACE_TOKEN
        else:
            token = char
        if code_point < _CACHED_CODE_POINTS:
            self[code_point] = token
        return token


_TOKENS = _TokenTable()


def extract_pattern(text: str) -> str:
    """The shape pattern of one string (empty string → empty pattern)."""
    tokens: list[str] = []
    previous: str | None = None
    for char in text:
        if char.isdigit():
            token = DIGIT_TOKEN
        elif char.isalpha():
            token = LETTER_TOKEN
        elif char.isspace():
            token = SPACE_TOKEN
        else:
            token = char
        if token != previous or token not in (
            DIGIT_TOKEN,
            LETTER_TOKEN,
            SPACE_TOKEN,
        ):
            tokens.append(token)
        previous = token
    return "".join(tokens)


def extract_patterns(texts: Sequence[str]) -> list[str]:
    """``[extract_pattern(text) for text in texts]``, a column at a time."""
    if not texts:
        return []
    joined = _SEPARATOR.join(texts)
    if joined.count(_SEPARATOR) != len(texts) - 1:
        return [extract_pattern(text) for text in texts]
    shapes = joined.translate(_TOKENS)
    for run, token in _RUNS:
        shapes = run.sub(token, shapes)
    return shapes.split(_SEPARATOR)


def generalize_pattern(pattern: str) -> str:
    """Collapse word structure: runs of letters/spaces become one ``A``.

    ``A_A_A`` and ``A_A`` (two titles with different word counts) both
    generalise to ``A`` — free text matches free text — while ``N:N``
    vs ``N`` (the ``m:ss`` vs milliseconds conflict) and ``A,_A`` vs ``A``
    (``Last, First`` vs ``First Last``) stay distinct.
    """
    tokens: list[str] = []
    previous: str | None = None
    for char in pattern:
        token = "A" if char in (LETTER_TOKEN, SPACE_TOKEN) else char
        if token != previous or token != "A":
            tokens.append(token)
        previous = token
    return "".join(tokens)


def pattern_distribution(values: Iterable[str]) -> dict[str, float]:
    """Relative frequency of each pattern over the given strings."""
    counts: Counter[str] = Counter(extract_pattern(value) for value in values)
    total = sum(counts.values())
    if not total:
        return {}
    return {pattern: count / total for pattern, count in counts.items()}


def dominant_pattern(values: Iterable[str]) -> tuple[str | None, float]:
    """The most frequent pattern and its share; ``(None, 0.0)`` if empty."""
    distribution = pattern_distribution(values)
    if not distribution:
        return None, 0.0
    pattern = max(distribution, key=lambda key: (distribution[key], key))
    return pattern, distribution[pattern]
