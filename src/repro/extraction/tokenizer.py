"""Tokenization for web-page text.

Tokens keep their original capitalization (the NER relies on it) but are
stripped of punctuation; a trailing period after a single capital letter is
treated as a name initial and preserved as the bare letter (``"J." -> "J"``).

A token is a match of ``[A-Za-z][A-Za-z'-]*``: the maximal run of ASCII
letters, apostrophes and hyphens, with its leading apostrophes and
hyphens stripped.  Text is read without a regex: encoded to ASCII with
every other code point replaced by ``?``, one ``bytes.translate`` blanks
every byte a token cannot hold (one table keeps case, one also lowers
``A``–``Z``), ``split()`` cuts the runs and only a text holding ``'`` or
``-`` strips and drops chunks.
"""

from __future__ import annotations

import re
from itertools import repeat

_SENTENCE_SPLIT = re.compile(r"(?<=[.!?])\s+")

_KEPT = frozenset(b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz'-")
#: Per byte: itself if a token may hold it, else a space.
_CASED = bytes(byte if byte in _KEPT else 0x20 for byte in range(256))
#: :data:`_CASED` with ``A``–``Z`` lowered (``bytes.lower`` is ASCII-only).
_LOWERED = _CASED.lower()


def _split(text: str, table: bytes) -> list[str]:
    """The tokens of ``text``, its ASCII bytes mapped through ``table``.

    A token holds ASCII letters only, so any other code point separates
    tokens: ``"replace"`` encodes each one (a lone surrogate or an
    astral character too) as one ``?``, which both tables blank.
    """
    kept = text.encode("ascii", "replace").translate(table).decode("ascii")
    chunks = kept.split()
    if "'" in kept or "-" in kept:
        return list(filter(None, map(str.lstrip, chunks, repeat("'-"))))
    return chunks


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
    return _split(text, _CASED)


def page_tokens(page) -> list[str]:
    """Tokens of a page's title and body, the text every extractor reads.

    ``page`` is anything with ``title`` and ``text`` strings.  The
    separator keeps the last title word and the first body word apart.
    """
    return tokenize(f"{page.title}. {page.text}")


def page_lowered_tokens(page) -> list[str]:
    """``lower_all(page_tokens(page))``, for a reader that needs no case.

    The translate table lowers the text itself: tokens are ASCII, where
    lowering maps letters to letters one to one and leaves every other
    byte alone, so the tokens are the same.
    """
    return _split(f"{page.title}. {page.text}", _LOWERED)


def lower_all(tokens: list[str]) -> list[str]:
    """``tokens`` lower-cased one by one, positions preserved.

    Per token and never over joined or raw text: ``str.lower`` can change
    a string's length (``'İ'``) or turn a non-letter into an ASCII letter
    (the Kelvin sign), which would shift token boundaries.
    """
    return list(map(str.lower, tokens))


def is_capitalized(token: str) -> bool:
    """True for tokens starting with an uppercase letter."""
    return bool(token) and token[0].isupper()


def is_initial(token: str) -> bool:
    """True for single-letter uppercase tokens (name initials)."""
    return len(token) == 1 and token.isupper()
