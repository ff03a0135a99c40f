"""Training-sample selection (paper §V-A2).

The paper trains thresholds, regions and accuracy estimates on 10 % of the
labeled data, re-drawn randomly for each of 5 runs.  Two sampling modes
are provided:

* ``"pairs"`` (default) — sample a fraction of the block's labeled page
  *pairs*.  This gives well-conditioned estimates even for names whose
  clusters are tiny (a document-level sample of a 61-cluster name can
  easily contain no positive pair at all).
* ``"documents"`` — sample a fraction of the block's *pages* and use all
  pairs among them, the strictest reading of "10 % of the complete
  dataset".

Both modes are exercised by the training-fraction ablation benchmark.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from itertools import accumulate

from repro.corpus.documents import NameCollection
from repro.graph.entity_graph import PairKey, pair_key

LabeledPair = tuple[PairKey, bool]


def all_labeled_pairs(block: NameCollection) -> list[LabeledPair]:
    """Every unordered page pair of the block with its ground-truth label."""
    truth = block.ground_truth()
    ids = block.page_ids()
    pairs: list[LabeledPair] = []
    for i, left in enumerate(ids):
        for right in ids[i + 1:]:
            pairs.append((pair_key(left, right), truth[left] == truth[right]))
    return pairs


def _sample_pair_mode(block: NameCollection, fraction: float,
                      rng: random.Random) -> list[LabeledPair]:
    """``"pairs"`` mode: sample a fraction of the labeled page pairs.

    Draws pair *indices* into :func:`all_labeled_pairs`' order and
    builds only the chosen pairs: ``rng.sample`` picks the same indices
    from ``range(n_pairs)`` as from the list itself, so the sample is
    that of ``rng.sample(all_labeled_pairs(block), k)``.
    """
    ids = block.page_ids()
    n_pairs = len(ids) * (len(ids) - 1) // 2
    sample_size = max(1, math.ceil(fraction * n_pairs))
    if sample_size >= n_pairs:
        return all_labeled_pairs(block)
    # Row i's pairs (i, i+1..n-1) start at index starts[i].
    starts = list(accumulate(range(len(ids) - 1, 0, -1), initial=0))
    truth = block.ground_truth()
    pairs: list[LabeledPair] = []
    for index in rng.sample(range(n_pairs), sample_size):
        i = bisect_right(starts, index) - 1
        left, right = ids[i], ids[i + 1 + index - starts[i]]
        pairs.append((pair_key(left, right), truth[left] == truth[right]))
    return pairs


def _sample_document_mode(block: NameCollection, fraction: float,
                          rng: random.Random) -> list[LabeledPair]:
    """``"documents"`` mode: sample pages, keep all pairs among them."""
    truth = block.ground_truth()
    ids = block.page_ids()
    sample_size = max(2, math.ceil(fraction * len(ids)))
    chosen = rng.sample(ids, min(sample_size, len(ids)))
    chosen.sort()
    pairs = []
    for i, left in enumerate(chosen):
        for right in chosen[i + 1:]:
            pairs.append((pair_key(left, right), truth[left] == truth[right]))
    return pairs


#: Built-in modes, bridged into :data:`repro.core.registry.SAMPLING_MODES`
#: (this module cannot import ``repro.core`` at import time — the core
#: package imports it back).  A mode is a callable
#: ``(block, fraction, rng) -> list[LabeledPair]``.
BUILTIN_SAMPLING_MODES = {
    "pairs": _sample_pair_mode,
    "documents": _sample_document_mode,
}


def sample_training_pairs(
    block: NameCollection,
    fraction: float = 0.1,
    seed: int = 0,
    mode: str = "pairs",
) -> list[LabeledPair]:
    """Draw one training sample for a block.

    Args:
        block: the name's page collection (must be fully labeled).
        fraction: fraction of the data to sample, in (0, 1].
        seed: sampling seed; each of the protocol's 5 runs uses its own.
        mode: ``"pairs"`` or ``"documents"`` (see module docstring), or any
            mode added with
            :func:`repro.core.registry.register_sampling_mode`.

    Raises:
        ValueError: for an invalid fraction or unknown mode.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    rng = random.Random(seed)
    # The registry is the single dispatch authority (it bridges the
    # built-ins on first read), so replace=True overrides take effect
    # here too.  Imported lazily: repro.core imports this module back.
    from repro.core.registry import SAMPLING_MODES
    sampler = SAMPLING_MODES.get(mode)
    return sampler(block, fraction, rng)


def training_runs(n_runs: int = 5, base_seed: int = 0) -> list[int]:
    """The per-run sampling seeds of the 5-run averaging protocol."""
    rng = random.Random(base_seed)
    return [rng.randrange(2**31) for _ in range(n_runs)]
