"""Shard parity: features unpickled from a shard score bit-identically.

A parallel fan-out ships one wire format: the pickled payload list,
published once as a shard (:mod:`repro.runtime.shards`).  A worker
forked before the publish attaches the segment, unpickles its payload
and closes the segment at once.  The promise checked here is that the
worker's copy scores to the *same bytes* as the parent's original
feature dicts, under both backends and over both transports (shared
memory and the scratch-file fallback), and that it keeps every dict's
iteration order — the order the scoring folds run in.

Blocks come from the seeded corpus generator, so every shrunk
counterexample is a reproducible (seed, pages, alpha) triple.
"""

from __future__ import annotations

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
from repro.runtime import shards as shards_module
from repro.runtime.shards import ShardStore, load_shard
from repro.similarity.backends import BACKENDS
from repro.similarity.extended import full_battery

PYTHON = BACKENDS.get("python")
NUMPY = BACKENDS.get("numpy")

TRANSPORTS = pytest.mark.parametrize("prefer_shm", [True, False],
                                     ids=["shm", "file"])


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


def shipped(payload, prefer_shm: bool):
    """The copy a worker forked before the publish would read.

    The store is closed (its segment unlinked) before the copy is
    returned: nothing the copy holds may point into the segment.
    """
    with ShardStore(prefer_shared_memory=prefer_shm) as store:
        handle = store.publish(payload, label="parity")
        shards_module._LOCAL.pop(handle.shard_id)
        copy = load_shard(handle)
        shards_module._ATTACHED.clear()
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


class TestShardBitIdentity:
    @TRANSPORTS
    @settings(max_examples=10, deadline=None)
    @given(block_inputs)
    def test_numpy_scores_from_shard_match_dict_scores(self, prefer_shm,
                                                       inputs):
        seed, pages, alpha = inputs
        block, features = generated_block(seed, pages, alpha)
        ids = block.page_ids()
        battery = full_battery()
        assert_same_bits(
            block_scores(NUMPY, ids, features, battery),
            block_scores(NUMPY, ids, shipped(features, prefer_shm), battery))

    @TRANSPORTS
    @settings(max_examples=6, deadline=None)
    @given(block_inputs)
    def test_python_scores_from_shard_match_dict_scores(self, prefer_shm,
                                                        inputs):
        seed, pages, alpha = inputs
        block, features = generated_block(seed, pages, alpha)
        ids = block.page_ids()
        battery = full_battery()
        assert_same_bits(
            block_scores(PYTHON, ids, features, battery),
            block_scores(PYTHON, ids, shipped(features, prefer_shm),
                         battery))

    @TRANSPORTS
    @settings(max_examples=6, deadline=None)
    @given(block_inputs, st.integers(2, 5))
    def test_masked_scores_from_shard_match(self, prefer_shm, inputs,
                                            mask_span):
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
        copy = shipped(features, prefer_shm)
        for mask in (square, rectangle):
            assert_same_bits(
                block_scores(NUMPY, ids, features, battery, mask=mask),
                block_scores(NUMPY, ids, copy, battery, mask=mask))


class TestUnpickledObjectBitIdentity:
    @TRANSPORTS
    @settings(max_examples=8, deadline=None)
    @given(block_inputs)
    def test_unpickled_pages_equal_originals_with_order(self, prefer_shm,
                                                        inputs):
        seed, pages, alpha = inputs
        _, features = generated_block(seed, pages, alpha)
        copy = shipped(features, prefer_shm)
        assert list(copy) == list(features)
        for doc_id, page in features.items():
            twin = copy[doc_id]
            assert twin == page
            assert list(page.tfidf) == list(twin.tfidf)
            assert list(page.concept_vector) == list(twin.concept_vector)
            assert list(page.organizations) == list(twin.organizations)
            assert list(page.other_persons) == list(twin.other_persons)
            assert list(page.locations) == list(twin.locations)
