"""IncrementalResolver.coalesced_pair_scores — bit-identity with
sequential adds.

The coalescing sweep's contract is tolerance-zero: feeding its scores
into ``add_page(..., scores=...)`` must reproduce, to the last bit, the
assignments and partitions of adding the same pages one at a time with
no precomputed scores — on every scoring backend (the reverse-add-order
block layout exists precisely so argument-order-asymmetric functions
like F9 stay bitwise equal; see the method's docstring).
"""

from __future__ import annotations

import pytest

from repro.core.config import ResolverConfig
from repro.core.incremental import IncrementalResolver
from repro.core.resolver import EntityResolver
from repro.corpus.documents import NameCollection


@pytest.fixture(scope="module", params=["python", "numpy"])
def backend_model(request, small_block, block_features):
    """A model fitted once per scoring backend."""
    return EntityResolver(ResolverConfig(backend=request.param)).fit(
        small_block, training_seed=0, features=block_features)


@pytest.fixture()
def incrementals(backend_model, small_block, block_features):
    """Two identically bootstrapped fresh resolvers on one backend."""
    base = NameCollection(query_name=small_block.query_name,
                          pages=list(small_block.pages)[:20])
    feats = {p.doc_id: block_features[p.doc_id] for p in base.pages}
    return [IncrementalResolver.from_model(backend_model, base, feats)
            for _ in range(2)]


@pytest.fixture(scope="module")
def tail_features(small_block, block_features):
    return [block_features[p.doc_id] for p in list(small_block.pages)[20:26]]


class TestBitIdentity:
    def test_coalesced_adds_match_sequential_adds(self, incrementals,
                                                  tail_features):
        sequential, coalesced = incrementals
        scores = coalesced.coalesced_pair_scores(tail_features)
        assert scores is not None
        for features in tail_features:
            a = sequential.add_page(features)
            b = coalesced.add_page(features, scores=scores)
            # Dataclass equality covers doc id, entity id, novelty flag
            # and the link probability as an exact float.
            assert a == b, (a, b)
        assert sequential.clusters() == coalesced.clusters()

    def test_scores_cover_exactly_the_sequential_pairs(self, incrementals,
                                                       tail_features):
        from repro.graph.entity_graph import pair_key
        incremental = incrementals[1]
        existing = [page.doc_id for page in incremental.indexed_features()]
        new_ids = [page.doc_id for page in tail_features]
        scores = incremental.coalesced_pair_scores(tail_features)
        expected = {
            pair_key(new_id, other)
            for index, new_id in enumerate(new_ids)
            for other in existing + new_ids[:index]
        }
        for name in incremental.scoring_function_names():
            assert set(scores[name]) == expected


class TestFallbacks:
    def test_empty_batch_returns_none(self, incrementals):
        assert incrementals[1].coalesced_pair_scores([]) is None

    def test_duplicate_within_batch_returns_none(self, incrementals,
                                                 tail_features):
        batch = [tail_features[0], tail_features[1], tail_features[0]]
        assert incrementals[1].coalesced_pair_scores(batch) is None

    def test_duplicate_against_index_returns_none(self, incrementals,
                                                  tail_features,
                                                  block_features,
                                                  small_block):
        indexed = block_features[list(small_block.pages)[0].doc_id]
        batch = [tail_features[0], indexed]
        assert incrementals[1].coalesced_pair_scores(batch) is None


class TestSweepCost:
    """What a burst's sweep builds, by count — no wall clock.

    ``k`` new pages on an ``n``-page index score a ``k``-row rectangle:
    the numpy block state must not grow an ``(n + k)²`` Gram matrix or
    densify the resident pages over the whole block vocabulary to read
    ``k`` of its rows.
    """

    def test_burst_state_is_a_k_row_rectangle(self, small_block,
                                              block_features, tail_features,
                                              monkeypatch):
        pytest.importorskip("numpy")
        from repro.similarity.backends import NumpyBackend

        model = EntityResolver(ResolverConfig(
            backend="numpy", combiner="weighted_average")).fit(
                small_block, training_seed=0, features=block_features)
        base = NameCollection(query_name=small_block.query_name,
                              pages=list(small_block.pages)[:20])
        resident = {p.doc_id: block_features[p.doc_id] for p in base.pages}
        incremental = IncrementalResolver.from_model(model, base, resident)

        states = []
        build = NumpyBackend._block_state

        def spy(self, *args):
            states.append(build(self, *args))
            return states[-1]

        monkeypatch.setattr(NumpyBackend, "_block_state", spy)
        scores = incremental.coalesced_pair_scores(tail_features)
        [state] = states
        n, k = len(resident), len(tail_features)

        assert state.left.size == k
        assert state.right.size == n + k - 1
        expected_pairs = k * n + k * (k - 1) // 2
        assert len(state._pair_keys) == expected_pairs
        assert all(len(weights) == expected_pairs
                   for weights in scores.values())

        # The weighted-average combiner consults the TF-IDF measures, so
        # the sweep built their shared Gram block and family.
        assert state._dots["tfidf"].shape == (k, n + k - 1)
        family = state._vector_families["tfidf"]
        block_vocabulary = set().union(
            *(page.tfidf for page in resident.values()),
            *(page.tfidf for page in tail_features))
        burst_vocabulary = set().union(
            *(page.tfidf for page in tail_features))
        assert family.values.shape == (n + k, len(family.index))
        assert set(family.index) <= burst_vocabulary
        assert len(family.index) < len(block_vocabulary)
