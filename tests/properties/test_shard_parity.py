"""Pipe parity: features unpickled by a worker score bit-identically.

A parallel fan-out ships its payloads as pickles through the process
pool's own pipe, in chunks.  The promise checked here is that the
worker's copy (``pickle.loads(pickle.dumps(...))``, what the pool does)
scores to the *same bytes* as the parent's original feature dicts,
under both backends, and that it keeps every dict's iteration order —
the order the scoring folds run in.

Blocks come from the seeded corpus generator, so every shrunk
counterexample is a reproducible (seed, pages, alpha) triple.
"""

from __future__ import annotations

import pickle
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

np = pytest.importorskip("numpy")

from repro.core.config import ResolverConfig
from repro.core.resolver import EntityResolver
from repro.corpus.datasets import custom_dataset
from repro.corpus.generator import GeneratorConfig
from repro.graph.entity_graph import pair_key
from repro.similarity.backends import BACKENDS
from repro.similarity.extended import full_battery

PYTHON = BACKENDS.get("python")
NUMPY = BACKENDS.get("numpy")


def bits(value: float) -> bytes:
    return struct.pack("<d", value)


def generated_block(seed: int, pages: int, alpha: float):
    config = GeneratorConfig(pages_per_name=pages, max_clusters=3,
                             cluster_size_alpha=alpha, vocabulary_seed=7)
    collection = custom_dataset(["Ada Wong"], seed=seed, config=config,
                                cluster_counts={"Ada Wong": 2})
    block = collection.collections[0]
    pipeline = EntityResolver(ResolverConfig()).pipeline_for(collection)
    return block, pipeline.extract_block(block)


def shipped(payload):
    """The copy a worker reads: ``payload`` pickled and unpickled once."""
    copy = pickle.loads(pickle.dumps(payload))
    assert copy is not payload
    return copy


def block_scores(backend, ids, features, functions, mask=None):
    """Every function's graph as ``{pair_key: score}``, in pair order."""
    return {name: dict(graph.pairs()) for name, graph in
            backend.block_graphs(ids, features, functions,
                                 mask=mask).items()}


def assert_same_bits(reference, candidate):
    assert reference.keys() == candidate.keys()
    for name in reference:
        assert list(reference[name]) == list(candidate[name])
        for key, value in reference[name].items():
            assert bits(value) == bits(candidate[name][key]), (name, key)


block_inputs = st.tuples(st.integers(0, 10_000), st.integers(2, 12),
                         st.floats(1.0, 2.5))


class TestPipeBitIdentity:
    @settings(max_examples=20, deadline=None)
    @given(block_inputs)
    def test_numpy_scores_from_pipe_match_dict_scores(self, inputs):
        seed, pages, alpha = inputs
        block, features = generated_block(seed, pages, alpha)
        ids = block.page_ids()
        battery = full_battery()
        assert_same_bits(
            block_scores(NUMPY, ids, features, battery),
            block_scores(NUMPY, ids, shipped(features), battery))

    @settings(max_examples=12, deadline=None)
    @given(block_inputs)
    def test_python_scores_from_pipe_match_dict_scores(self, inputs):
        seed, pages, alpha = inputs
        block, features = generated_block(seed, pages, alpha)
        ids = block.page_ids()
        battery = full_battery()
        assert_same_bits(
            block_scores(PYTHON, ids, features, battery),
            block_scores(PYTHON, ids, shipped(features), battery))

    @settings(max_examples=12, deadline=None)
    @given(block_inputs, st.integers(2, 5))
    def test_masked_scores_from_pipe_match(self, inputs, mask_span):
        seed, pages, alpha = inputs
        block, features = generated_block(seed, pages, alpha)
        ids = block.page_ids()
        span = min(mask_span, len(ids))
        square = frozenset(pair_key(ids[i], ids[j])
                           for i in range(span) for j in range(i + 1, span))
        # Few left rows against every later page: the rectangle a
        # coalesced burst scores.
        rectangle = frozenset(pair_key(left, right)
                              for left in ids[:span - 1]
                              for right in ids[span - 1:])
        battery = full_battery()
        copy = shipped(features)
        for mask in (square, rectangle):
            assert_same_bits(
                block_scores(NUMPY, ids, features, battery, mask=mask),
                block_scores(NUMPY, ids, copy, battery, mask=mask))


class TestChunkBitIdentity:
    @settings(max_examples=8, deadline=None)
    @given(block_inputs, block_inputs)
    def test_blocks_sharing_a_chunk_score_bit_identically(self, first,
                                                          second):
        """A chunk pickles several payloads at once, so a later block's
        features may decode through references to an earlier one's;
        each block still scores to the original bytes."""
        blocks = [generated_block(*inputs) for inputs in (first, second)]
        copies = shipped([features for _, features in blocks])
        battery = full_battery()
        for (block, features), copy in zip(blocks, copies):
            ids = block.page_ids()
            assert_same_bits(block_scores(NUMPY, ids, features, battery),
                             block_scores(NUMPY, ids, copy, battery))


class TestUnpickledObjectBitIdentity:
    @settings(max_examples=16, deadline=None)
    @given(block_inputs)
    def test_unpickled_pages_equal_originals_with_order(self, inputs):
        seed, pages, alpha = inputs
        _, features = generated_block(seed, pages, alpha)
        copy = shipped(features)
        assert list(copy) == list(features)
        for doc_id, page in features.items():
            twin = copy[doc_id]
            assert twin == page
            assert list(page.tfidf) == list(twin.tfidf)
            assert list(page.concept_vector) == list(twin.concept_vector)
            assert list(page.organizations) == list(twin.organizations)
            assert list(page.other_persons) == list(twin.other_persons)
            assert list(page.locations) == list(twin.locations)


class TestReturnTripBitIdentity:
    """A prepare pass's graphs are computed in a worker and cross back
    through the pipe; the protocol passes then score with the copy."""

    @settings(max_examples=10, deadline=None)
    @given(block_inputs)
    def test_worker_graphs_return_bit_identical(self, inputs):
        seed, pages, alpha = inputs
        block, features = generated_block(seed, pages, alpha)
        graphs = NUMPY.block_graphs(block.page_ids(), features,
                                    full_battery())
        copy = shipped(graphs)
        assert list(copy) == list(graphs)
        for name, graph in graphs.items():
            layout, values = graph.vector()
            copy_layout, copy_values = copy[name].vector()
            assert copy_layout.keys() == layout.keys()
            assert copy_values.dtype == values.dtype
            assert copy_values.tobytes() == values.tobytes()

    @settings(max_examples=6, deadline=None)
    @given(block_inputs)
    def test_python_worker_graphs_return_bit_identical(self, inputs):
        seed, pages, alpha = inputs
        block, features = generated_block(seed, pages, alpha)
        battery = full_battery()
        graphs = PYTHON.block_graphs(block.page_ids(), features, battery)
        assert_same_bits(
            {name: dict(graph.pairs()) for name, graph in graphs.items()},
            {name: dict(graph.pairs())
             for name, graph in shipped(graphs).items()})
