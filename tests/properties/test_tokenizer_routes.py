"""The translate-split tokeniser ≡ the ``[A-Za-z][A-Za-z'-]*`` regex.

Text is tokenised by one ``bytes.translate`` and a ``split``, not a
regex; :data:`_TOKEN` here is the definition it is held to.  The draws
lean on what the two could disagree about: runs of ``'`` and ``-`` (also
opening a run), digits and punctuation against letters (``@``, ``[``,
`` ` `` and ``{`` border them in ASCII), the control bytes that
``str.split`` treats as whitespace (``\\x0b``, ``\\x0c``,
``\\x1c``–``\\x1f``) and those it does not (``\\x00``, ``\\x7f``), empty
titles and bodies, and non-ASCII code points — astral ones and a lone
surrogate too — which the encoder replaces by ``?``.
"""

from __future__ import annotations

import re
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.extraction.tokenizer import (
    lower_all,
    page_lowered_tokens,
    page_tokens,
    tokenize,
)

_TOKEN = re.compile(r"[A-Za-z][A-Za-z'-]*")

_EDGES = list("'-@[`{\x00\x0b\x0c\x1c\x1d\x1e\x1f\x7f0123456789 \t\n")
_ASCII = st.lists(st.one_of(
    st.sampled_from(["'", "-", "''", "--", "-'", "'-"]),
    st.sampled_from(["Ab", "zY", "q"]),
    st.sampled_from(_EDGES),
    st.sampled_from([chr(byte) for byte in range(0x80)])),
    max_size=40).map("".join)
_OTHER = st.lists(st.one_of(
    st.sampled_from(list("aZ'- İ\u212aéß\U0001d400\ud800")),
    st.characters(min_codepoint=0, max_codepoint=0x7F)),
    min_size=1, max_size=30).map("".join).filter(
        lambda text: not text.isascii())


def page(title: str, text: str) -> SimpleNamespace:
    return SimpleNamespace(title=title, text=text)


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.just(""), _ASCII), st.one_of(st.just(""), _ASCII))
def test_ascii_pages_match_the_regex(title, text):
    joined = f"{title}. {text}"
    assert page_tokens(page(title, text)) == _TOKEN.findall(joined)
    assert page_lowered_tokens(page(title, text)) == \
        _TOKEN.findall(joined.lower())
    assert tokenize(text) == _TOKEN.findall(text)


def test_run_edges():
    text = "'-ab --'cd'- e-f '' -- x'y-- -'-Z9z\x1cq\x7fr\x00s@t[u`v{w"
    assert tokenize(text) == _TOKEN.findall(text) == [
        "ab", "cd'-", "e-f", "x'y--", "Z", "z", "q", "r", "s", "t", "u",
        "v", "w"]
    assert page_lowered_tokens(page("", text)) == \
        _TOKEN.findall(f". {text}".lower())


@settings(max_examples=200, deadline=None)
@given(_OTHER, st.one_of(st.just(""), _ASCII))
def test_other_text_matches_the_regex(title, text):
    joined = f"{title}. {text}"
    assert page_tokens(page(title, text)) == _TOKEN.findall(joined)
    assert page_lowered_tokens(page(title, text)) == \
        lower_all(_TOKEN.findall(joined))
    assert tokenize(title) == _TOKEN.findall(title)


def test_non_ascii_code_points_separate_tokens():
    text = "İstanbul 300 \u212a \U0001d400x café \ud800b O\u2019Brien"
    expected = ["stanbul", "x", "caf", "b", "O", "Brien"]
    assert tokenize(text) == _TOKEN.findall(text) == expected
    assert page_tokens(page(text, "")) == expected
    assert page_lowered_tokens(page("", text)) == lower_all(expected)
