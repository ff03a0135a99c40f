"""Tokenizer tests."""

from types import SimpleNamespace

from repro.extraction.tokenizer import (
    is_capitalized,
    is_initial,
    lower_all,
    page_lowered_tokens,
    page_tokens,
    sentences,
    tokenize,
)


class TestTokenize:
    def test_basic(self):
        assert tokenize("hello world") == ["hello", "world"]

    def test_strips_punctuation(self):
        assert tokenize("one, two. three!") == ["one", "two", "three"]

    def test_preserves_case(self):
        assert tokenize("Acme Labs builds things") == [
            "Acme", "Labs", "builds", "things"]

    def test_initial_period_dropped(self):
        assert tokenize("J. Cohen") == ["J", "Cohen"]

    def test_keeps_internal_hyphen_apostrophe(self):
        assert tokenize("state-of-the-art O'Brien") == ["state-of-the-art", "O'Brien"]

    def test_drops_numbers(self):
        assert tokenize("in 2009 we built x9") == ["in", "we", "built", "x"]

    def test_empty(self):
        assert tokenize("") == []

    def test_docstring_example(self):
        assert tokenize("Prof. J. Cohen works at Acme Labs.") == [
            "Prof", "J", "Cohen", "works", "at", "Acme", "Labs"]


class TestSentences:
    def test_split_on_periods(self):
        assert sentences("One two. Three four. Five.") == [
            "One two.", "Three four.", "Five."]

    def test_no_terminal_punctuation(self):
        assert sentences("just one fragment") == ["just one fragment"]

    def test_empty(self):
        assert sentences("  ") == []


class TestLowerAll:
    def test_no_tokens(self):
        # not [''], which joining, lowering and re-splitting would give
        assert lower_all([]) == []

    def test_positions_survive_length_changing_lowercase(self):
        # 'İ'.lower() is two code points; each token is lowered alone
        tokens = ["\u0130stanbul", "Acme", "\u212a", "O'Neil", "x-Ray"]
        assert lower_all(tokens) == [token.lower() for token in tokens]
        assert len(lower_all(tokens)) == len(tokens)


class TestPageTokens:
    def page(self, title, text):
        return SimpleNamespace(title=title, text=text)

    def test_title_and_text_do_not_merge(self):
        assert page_tokens(self.page("Acme", "Labs")) == ["Acme", "Labs"]

    def test_empty_title_or_text(self):
        assert page_tokens(self.page("", "")) == []
        assert page_tokens(self.page("", "body")) == ["body"]
        assert page_tokens(self.page("Title", "")) == ["Title"]

    def test_case_is_read_from_the_raw_text(self):
        # Lower-casing the raw text first would turn the Kelvin sign into
        # the ASCII letter 'k' and 'İ' into 'i' + a combining dot: two
        # tokens that are not on the page.
        page = self.page("\u0130stanbul", "300 \u212a")
        assert page_tokens(page) == ["stanbul"]


class TestPageLoweredTokens:
    def page(self, title, text):
        return SimpleNamespace(title=title, text=text)

    def test_equals_lowering_each_token(self):
        for title, text in [("Acme Labs", "J. O'Neil x-Ray, 3 DOTS."),
                            ("", ""), ("Title", ""),
                            ("\u0130stanbul", "300 \u212a and \u00c9cole"),
                            ("caf\u00e9", "Stra\u00dfe MIXED case")]:
            page = self.page(title, text)
            assert page_lowered_tokens(page) == lower_all(page_tokens(page))


class TestPredicates:
    def test_is_capitalized(self):
        assert is_capitalized("Word")
        assert not is_capitalized("word")
        assert not is_capitalized("")

    def test_is_initial(self):
        assert is_initial("J")
        assert not is_initial("Jo")
        assert not is_initial("j")
