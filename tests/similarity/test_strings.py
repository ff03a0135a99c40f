"""String similarity tests."""

import pytest

from repro.extraction.features import PageFeatures
from repro.similarity.functions import function_by_name
from repro.similarity.strings import (
    jaro,
    jaro_winkler,
    levenshtein,
    name_similarity,
    normalized_edit_similarity,
)


class TestLevenshtein:
    def test_identical(self):
        assert levenshtein("kitten", "kitten") == 0

    def test_classic(self):
        assert levenshtein("kitten", "sitting") == 3

    def test_empty(self):
        assert levenshtein("", "abc") == 3
        assert levenshtein("abc", "") == 3

    def test_symmetric(self):
        assert levenshtein("abcdef", "azced") == levenshtein("azced", "abcdef")

    def test_single_substitution(self):
        assert levenshtein("cat", "car") == 1


class TestNormalizedEditSimilarity:
    def test_identical(self):
        assert normalized_edit_similarity("same", "same") == 1.0

    def test_both_empty(self):
        assert normalized_edit_similarity("", "") == 1.0

    def test_completely_different(self):
        assert normalized_edit_similarity("abc", "xyz") == 0.0

    def test_range(self):
        value = normalized_edit_similarity("window", "widow")
        assert 0.0 < value < 1.0


class TestJaro:
    def test_identical(self):
        assert jaro("martha", "martha") == 1.0

    def test_classic_martha(self):
        assert jaro("martha", "marhta") == pytest.approx(0.9444, abs=1e-4)

    def test_classic_dixon(self):
        assert jaro("dixon", "dicksonx") == pytest.approx(0.7667, abs=1e-4)

    def test_no_match(self):
        assert jaro("abc", "xyz") == 0.0

    def test_empty(self):
        assert jaro("", "abc") == 0.0

    def test_symmetric(self):
        assert jaro("dwayne", "duane") == jaro("duane", "dwayne")


class TestJaroWinkler:
    def test_classic_martha(self):
        assert jaro_winkler("martha", "marhta") == pytest.approx(0.9611, abs=1e-4)

    def test_prefix_boost(self):
        assert jaro_winkler("prefixes", "prefixed") > jaro("prefixes", "prefixed")

    def test_no_boost_without_prefix(self):
        assert jaro_winkler("abcd", "xbcd") == jaro("abcd", "xbcd")

    def test_prefix_cap_at_four(self):
        # Identical 4-char and 6-char prefixes give the same boost factor.
        value = jaro_winkler("abcdefgh", "abcdxxxx")
        jaro_value = jaro("abcdefgh", "abcdxxxx")
        assert value == pytest.approx(jaro_value + 4 * 0.1 * (1 - jaro_value))

    def test_in_unit_interval(self):
        assert 0.0 <= jaro_winkler("a", "zzzzz") <= 1.0


class TestNameSimilarity:
    def test_identical(self):
        assert name_similarity("William Cohen", "William Cohen") == 1.0

    def test_case_insensitive(self):
        assert name_similarity("william cohen", "William Cohen") == 1.0

    def test_bare_surname_compatible(self):
        assert name_similarity("Cohen", "William Cohen") == 0.9

    def test_initial_compatible(self):
        assert name_similarity("W. Cohen", "William Cohen") == 0.95

    def test_conflicting_first_names(self):
        assert name_similarity("William Cohen", "David Cohen") == 0.4

    def test_different_surnames_low(self):
        assert name_similarity("William Cohen", "William Smith") < 0.9

    def test_empty_is_zero(self):
        assert name_similarity("", "William Cohen") == 0.0
        assert name_similarity("", "") == 0.0

    @pytest.mark.parametrize("left, right", [
        ("a", " "), ("\t", "John Smith"), (" \n ", " "), ("  ", "")])
    def test_whitespace_only_is_missing(self, left, right):
        """A name that strips to nothing is no name (it used to raise
        IndexError), on either side and through F3 / F7."""
        assert name_similarity(left, right) == 0.0
        assert name_similarity(right, left) == 0.0
        first = PageFeatures(doc_id="a", most_frequent_name=left,
                             closest_name_to_query=left)
        second = PageFeatures(doc_id="b", most_frequent_name=right,
                              closest_name_to_query=right)
        for name in ("F3", "F7"):
            assert function_by_name(name)(first, second) == 0.0

    def test_symmetric(self):
        pairs = [("Cohen", "William Cohen"), ("W. Cohen", "William Cohen"),
                 ("A B", "C D")]
        for left, right in pairs:
            assert name_similarity(left, right) == name_similarity(right, left)
