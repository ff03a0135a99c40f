"""Greedy longest-match phrase spotting over token sequences.

The gazetteer NER (organizations, locations) and the concept spotter
both look up multi-word phrases from a fixed inventory; this is the one
matcher they share.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from itertools import compress, count


class PhraseMatcher:
    """Longest-match lookup of known phrases, indexed by first word.

    Args:
        phrases: the inventory; each phrase is split on whitespace and
            matched token by token, exactly as written (callers wanting
            case-insensitive matching lower-case both sides).
    """

    def __init__(self, phrases: Iterable[str]):
        # first word -> (the lengths its phrases have, longest first;
        # the phrases): a match tries only lengths that exist.
        self._index: dict[str, tuple[list[int], set[tuple[str, ...]]]] = {}
        for phrase in phrases:
            tokens = tuple(phrase.split())
            if not tokens:
                continue
            entry = self._index.get(tokens[0])
            if entry is None:
                self._index[tokens[0]] = ([len(tokens)], {tokens})
                continue
            lengths, group = entry
            group.add(tokens)
            if len(tokens) not in lengths:
                lengths.append(len(tokens))
                lengths.sort(reverse=True)

    def first_words(self) -> Iterable[str]:
        """The words some phrase begins with."""
        return self._index.keys()

    def starts(self, tokens: list[str]) -> Iterator[int]:
        """Positions whose token begins at least one known phrase, in
        order."""
        return compress(count(), map(self._index.__contains__, tokens))

    def match_at(self, tokens: list[str], position: int) -> tuple[str, ...] | None:
        """Longest phrase starting at ``position``, or None."""
        entry = self._index.get(tokens[position])
        if entry is None:
            return None
        lengths, phrases = entry
        remaining = len(tokens) - position
        for length in lengths:
            if length <= remaining:
                window = tuple(tokens[position:position + length])
                if window in phrases:
                    return window
        return None
