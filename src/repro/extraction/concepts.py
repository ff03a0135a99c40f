"""Wikipedia-style concept extraction (SemanticHacker substitute).

Concepts are multi-word phrases from a known concept inventory.  The
extractor spots them in lowercased token streams by greedy longest-match
and produces both the raw concept multiset (for the overlap-based F4) and a
frequency-weighted, L1-normalized concept vector (for the cosine-based F1).
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable

from repro.extraction.phrases import PhraseMatcher
from repro.extraction.tokenizer import lower_all


class ConceptExtractor:
    """Spots known concept phrases in page text.

    Args:
        concepts: the concept inventory (phrases of one or more words).
    """

    def __init__(self, concepts: Iterable[str]):
        self._matcher = PhraseMatcher(concept.lower() for concept in concepts)

    def extract_counts(self, tokens: list[str]) -> Counter:
        """Concept phrase -> occurrence count for a page.

        Args:
            tokens: the page's tokens (any case; matching is lowercased).
        """
        return self.spot(lower_all(tokens))

    def spot(self, lowered: list[str]) -> Counter:
        """:meth:`extract_counts` over already lower-cased tokens.

        Only positions whose token begins a concept are visited; a match
        consumes its span, so concepts never overlap.
        """
        matcher = self._matcher
        counts: Counter = Counter()
        free = 0  # first position no earlier match has consumed
        for position in matcher.starts(lowered):
            if position < free:
                continue
            match = matcher.match_at(lowered, position)
            if match is not None:
                counts[" ".join(match)] += 1
                free = position + len(match)
        return counts

    @staticmethod
    def weighted_vector(counts: Counter) -> dict[str, float]:
        """Frequency-weighted concept vector, L1-normalized.

        Returns an empty dict for pages without concepts (the similarity
        functions treat that as zero evidence, one of the paper's "missing
        information" cases).
        """
        total = sum(counts.values())
        if total == 0:
            return {}
        # Key-sorted like the TF-IDF vectors: canonical iteration order is
        # what keeps scalar and vectorized similarity backends bit-identical.
        return {concept: count / total
                for concept, count in sorted(counts.items())}
