"""Token blocking: pages sharing any indexed token become candidates.

A classic schema-agnostic blocker for the general web setting the paper's
footnote points at.  To keep blocks selective, only capitalized tokens
(entity-ish words) above a minimum length are indexed by default, and very
frequent tokens are dropped as stop-blocks.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.blocking.base import Blocker, BlockingResult
from repro.core.registry import register_blocker
from repro.corpus.documents import WebPage
from repro.extraction.tokenizer import is_capitalized, page_tokens
from repro.graph.entity_graph import pair_key


@register_blocker("token")
class TokenBlocker(Blocker):
    """Inverted-index blocking on (entity-like) page tokens.

    Args:
        min_token_length: tokens shorter than this are not indexed.
        max_block_fraction: tokens appearing in more than this fraction of
            pages are treated as stop-blocks and skipped.
        entity_tokens_only: index only capitalized tokens (default); set
            False to index every token.
    """

    name = "token"

    def __init__(self, min_token_length: int = 3,
                 max_block_fraction: float = 0.25,
                 entity_tokens_only: bool = True):
        self.min_token_length = min_token_length
        self.max_block_fraction = max_block_fraction
        self.entity_tokens_only = entity_tokens_only

    def block(self, pages: Iterable[WebPage]) -> BlockingResult:
        page_list = list(pages)
        index: dict[str, set[str]] = {}
        for page in page_list:
            for token in self._keys(page):
                index.setdefault(token, set()).add(page.doc_id)

        result = BlockingResult(pages=page_list)
        max_block = max(2, int(self.max_block_fraction * len(page_list)))
        for members in index.values():
            if len(members) < 2 or len(members) > max_block:
                continue
            ordered = sorted(members)
            for i, left in enumerate(ordered):
                for right in ordered[i + 1:]:
                    result.candidate_pairs.add(pair_key(left, right))
        return result

    def _keys(self, page: WebPage) -> set[str]:
        """The page's distinct blocking keys, from one pass over its text."""
        return self.token_keys(page_tokens(page))

    def token_keys(self, tokens: list[str]) -> set[str]:
        """The distinct blocking keys among a page's ``page_tokens`` —
        for callers that tokenised the page already."""
        shortest = self.min_token_length
        entity_only = self.entity_tokens_only
        return {token.lower() for token in set(tokens)
                if len(token) >= shortest
                and (not entity_only or is_capitalized(token))}
