"""Blocking schemes.

The paper applies "a basic blocking technique": similarity is computed only
between documents retrieved for the same person name, which is natural for
datasets already organized around names (§IV-C footnote).  The footnote
notes that general settings need more careful blocking; this package
provides the paper's scheme plus two classic generic blockers (token
blocking and sorted neighborhood) for that general setting.
"""

from repro.blocking.base import (
    Blocker,
    BlockingResult,
    CandidateMask,
    block_collection,
    blocks_from_candidates,
)
from repro.blocking.name_blocking import QueryNameBlocker
from repro.blocking.token_blocking import TokenBlocker
from repro.blocking.sorted_neighborhood import SortedNeighborhoodBlocker

__all__ = [
    "Blocker",
    "BlockingResult",
    "CandidateMask",
    "QueryNameBlocker",
    "TokenBlocker",
    "SortedNeighborhoodBlocker",
    "block_collection",
    "blocks_from_candidates",
]
