"""Greedy longest-match phrase spotting over token sequences.

The gazetteer NER (organizations, locations) and the concept spotter
both look up multi-word phrases from a fixed inventory; this is the one
matcher they share.
"""

from __future__ import annotations

from collections.abc import Iterable


class PhraseMatcher:
    """Longest-match lookup of known phrases, indexed by first word.

    Args:
        phrases: the inventory; each phrase is split on whitespace and
            matched token by token, exactly as written (callers wanting
            case-insensitive matching lower-case both sides).
    """

    def __init__(self, phrases: Iterable[str]):
        self._index: dict[str, set[tuple[str, ...]]] = {}
        self.max_len = 1
        for phrase in phrases:
            tokens = tuple(phrase.split())
            if not tokens:
                continue
            self._index.setdefault(tokens[0], set()).add(tokens)
            self.max_len = max(self.max_len, len(tokens))

    def starts(self, tokens: list[str]) -> list[int]:
        """Positions whose token begins at least one known phrase."""
        index = self._index
        return [position for position, token in enumerate(tokens)
                if token in index]

    def match_at(self, tokens: list[str], position: int) -> tuple[str, ...] | None:
        """Longest phrase starting at ``position``, or None."""
        candidates = self._index.get(tokens[position])
        if not candidates:
            return None
        limit = min(self.max_len, len(tokens) - position)
        for length in range(limit, 0, -1):
            window = tuple(tokens[position:position + length])
            if window in candidates:
                return window
        return None
