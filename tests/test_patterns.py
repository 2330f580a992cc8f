"""Unit tests for text pattern extraction."""

from hypothesis import example, given
from hypothesis import strategies as st

from repro.profiling import patterns
from repro.profiling.patterns import (
    dominant_pattern,
    extract_pattern,
    extract_patterns,
    generalize_pattern,
    pattern_distribution,
)

#: Any character, plus the ones the column-at-a-time path must get right:
#: its separator, a literal ``_`` (the space token), letters that look like
#: tokens, an astral digit and letter, a lone surrogate, and a space, a
#: digit and a letter, so that runs of each token are common.
texts = st.text(
    alphabet=st.one_of(
        st.characters(),
        st.sampled_from(
            ["\x00", "_", "N", "A", "𝟘", "𝐀", "\ud800", " ", "1", "a"]
        ),
    ),
    max_size=40,
)


class TestExtractPattern:
    def test_duration_pattern(self):
        assert extract_pattern("4:43") == "N:N"

    def test_milliseconds_pattern(self):
        assert extract_pattern("215900") == "N"

    def test_title_pattern(self):
        assert extract_pattern("Sweet Home Alabama") == "A_A_A"

    def test_inverted_name_pattern(self):
        assert extract_pattern("Smith, Alex") == "A,_A"

    def test_punctuation_kept_verbatim(self):
        assert extract_pattern("12-34") == "N-N"
        assert extract_pattern("(1999)") == "(N)"

    def test_repeated_punctuation_not_collapsed(self):
        assert extract_pattern("a--b") == "A--A"

    def test_empty_string(self):
        assert extract_pattern("") == ""

    def test_mixed_alphanumeric(self):
        assert extract_pattern("A1") == "AN"

    def test_token_lookalikes(self):
        assert extract_pattern("NA_ x") == "A_A"
        assert extract_pattern("𝟘𝟘:𝐀") == "N:A"


class TestExtractPatterns:
    def test_column(self):
        assert extract_patterns(["4:43", "215900", "", "Smith, Alex"]) == [
            "N:N",
            "N",
            "",
            "A,_A",
        ]

    def test_astral_characters_are_not_cached(self):
        extract_patterns(["𝟘𝐀", "x"])
        assert all(code_point < 0x10000 for code_point in patterns._TOKENS)


class TestGeneralizePattern:
    def test_titles_converge(self):
        assert generalize_pattern("A_A_A") == generalize_pattern("A_A") == "A"

    def test_duration_formats_stay_distinct(self):
        assert generalize_pattern("N:N") != generalize_pattern("N")

    def test_inverted_names_stay_distinct(self):
        assert generalize_pattern("A,_A") == "A,A"
        assert generalize_pattern("A,_A") != generalize_pattern("A_A")

    def test_vinyl_position(self):
        assert generalize_pattern(extract_pattern("A1")) == "AN"


class TestDistribution:
    def test_distribution_sums_to_one(self):
        dist = pattern_distribution(["4:43", "3:26", "215900"])
        assert abs(sum(dist.values()) - 1.0) < 1e-9

    def test_dominant(self):
        pattern, share = dominant_pattern(["4:43", "3:26", "215900"])
        assert pattern == "N:N" and abs(share - 2 / 3) < 1e-9

    def test_empty(self):
        assert dominant_pattern([]) == (None, 0.0)


@given(texts)
def test_extract_is_deterministic_and_total(text):
    assert extract_pattern(text) == extract_pattern(text)


@given(texts)
def test_digits_never_survive(text):
    assert not any(char.isdigit() for char in extract_pattern(text))


@given(texts)
def test_generalize_is_idempotent(text):
    pattern = extract_pattern(text)
    generalized = generalize_pattern(pattern)
    assert generalize_pattern(generalized) == generalized


@given(st.lists(texts, max_size=12))
@example(column=[])
@example(column=[""])
@example(column=["", ""])
@example(column=["N1_ _A", "4:43", "𝟘1a𝐀"])
@example(column=["N1_ _A", "\x00", "4:43"])
def test_column_patterns_match_per_string_patterns(column):
    assert extract_patterns(column) == [extract_pattern(text) for text in column]
