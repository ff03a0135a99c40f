"""Tokenization for web-page text.

Tokens keep their original capitalization (the NER relies on it) but are
stripped of punctuation; a trailing period after a single capital letter is
treated as a name initial and preserved as the bare letter (``"J." -> "J"``).
"""

from __future__ import annotations

import re

_SENTENCE_SPLIT = re.compile(r"(?<=[.!?])\s+")
_TOKEN = re.compile(r"[A-Za-z][A-Za-z'-]*")


def sentences(text: str) -> list[str]:
    """Split ``text`` into sentences on terminal punctuation."""
    parts = _SENTENCE_SPLIT.split(text.strip())
    return [part for part in parts if part]


def tokenize(text: str) -> list[str]:
    """Extract word tokens from ``text``, preserving case.

    Punctuation is dropped; hyphens and apostrophes inside words are kept.

    >>> tokenize("Prof. J. Cohen works at Acme Labs.")
    ['Prof', 'J', 'Cohen', 'works', 'at', 'Acme', 'Labs']
    """
    return _TOKEN.findall(text)


def page_tokens(page) -> list[str]:
    """Tokens of a page's title and body, the text every extractor reads.

    ``page`` is anything with ``title`` and ``text`` strings.  The
    separator keeps the last title word and the first body word apart.
    """
    return _TOKEN.findall(f"{page.title}. {page.text}")


def lower_all(tokens: list[str]) -> list[str]:
    """``tokens`` lower-cased one by one, positions preserved.

    Per token and never over joined or raw text: ``str.lower`` can change
    a string's length (``'İ'``) or turn a non-letter into an ASCII letter
    (the Kelvin sign), which would shift token boundaries.
    """
    return list(map(str.lower, tokens))


def lower_tokens(text: str) -> list[str]:
    """Lowercased tokens, for term-frequency style processing."""
    return lower_all(tokenize(text))


def capitalized_positions(tokens: list[str]) -> list[int]:
    """Indices of the tokens :func:`is_capitalized` accepts."""
    return [position for position, token in enumerate(tokens)
            if token[:1].isupper()]


def is_capitalized(token: str) -> bool:
    """True for tokens starting with an uppercase letter."""
    return bool(token) and token[0].isupper()


def is_initial(token: str) -> bool:
    """True for single-letter uppercase tokens (name initials)."""
    return len(token) == 1 and token.isupper()
