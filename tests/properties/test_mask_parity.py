"""Masked-scoring parity: candidate masks never change a pair's bits.

Extends the backend-parity suite (:mod:`tests.properties.
test_backend_parity`) to the candidate-pair masks the blocking layer
threads through the similarity backends: for any mask, masked scoring
must be IEEE-byte-identical across backends *and* equal to dense scoring
restricted to the candidate pairs — in the dense sweep's pair order.
Tolerance is zero everywhere.

Three mask shapes are drawn: an arbitrary subset of the block's pairs
(a blocker's output), the request-coalescing layout (``k`` new pages in
reverse add order, each against every resident page and the new pages
added before it) and a one-sided mask (few left rows against many right
rows) — the numpy kernels fill a ``left × right`` rectangle, so the
shapes that make it narrow are the ones worth pinning.  The request
path lays the coalescing rectangle out with no mask at all, over a
resident record grown page by page; it must give the same bytes.
"""

from __future__ import annotations

import struct
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import ResolverConfig
from repro.core.resolver import EntityResolver
from repro.corpus.datasets import custom_dataset
from repro.corpus.generator import GeneratorConfig
from repro.graph.entity_graph import pair_key
from repro.runtime.batch import batched_similarity_graphs
from repro.similarity import backends
from repro.similarity.backends import NumpyBackend, PythonBackend
from repro.similarity.extended import full_battery
from repro.similarity.functions import default_functions

PYTHON = PythonBackend()
NUMPY = NumpyBackend()


def bits(value: float) -> bytes:
    return struct.pack("<d", value)


def generated_block(seed: int, pages: int):
    config = GeneratorConfig(pages_per_name=pages, max_clusters=3,
                             vocabulary_seed=7)
    collection = custom_dataset(["Ada Wong"], seed=seed, config=config,
                                cluster_counts={"Ada Wong": 2})
    block = collection.collections[0]
    pipeline = EntityResolver(ResolverConfig()).pipeline_for(collection)
    return block, pipeline.extract_block(block)


def drawn_mask(draw, ids: list[str]) -> frozenset:
    """A hypothesis-chosen subset of the block's pairs."""
    all_pairs = [pair_key(left, right)
                 for i, left in enumerate(ids) for right in ids[i + 1:]]
    keep = draw(st.lists(st.booleans(), min_size=len(all_pairs),
                         max_size=len(all_pairs)))
    return frozenset(pair for pair, kept in zip(all_pairs, keep) if kept)


@st.composite
def masked_inputs(draw):
    seed = draw(st.integers(0, 10_000))
    pages = draw(st.integers(2, 10))
    block, features = generated_block(seed, pages)
    mask = drawn_mask(draw, block.page_ids())
    return block, features, mask


@st.composite
def burst_inputs(draw):
    """The coalescing sweep's block: the last ``k`` pages arrive on the
    rest, laid out in reverse add order."""
    seed = draw(st.integers(0, 10_000))
    pages = draw(st.integers(2, 10))
    block, features = generated_block(seed, pages)
    ids = block.page_ids()
    new = draw(st.integers(1, pages - 1))
    resident, arriving = ids[:-new], ids[-new:]
    mask = frozenset(pair_key(page, other)
                     for index, page in enumerate(arriving)
                     for other in resident + arriving[:index])
    return list(reversed(arriving)) + resident, features, mask


@st.composite
def record_inputs(draw):
    """A resident record grown in two steps — some pages resident when
    it is made, the rest joining after — and a burst on top of it."""
    seed = draw(st.integers(0, 10_000))
    pages = draw(st.integers(2, 10))
    block, features = generated_block(seed, pages)
    ids = block.page_ids()
    new = draw(st.integers(1, pages - 1))
    resident, arriving = ids[:-new], ids[-new:]
    made = draw(st.integers(0, len(resident)))
    return resident, arriving, made, features


@st.composite
def one_sided_inputs(draw):
    """One or two left pages against a drawn subset of the later ones."""
    seed = draw(st.integers(0, 10_000))
    pages = draw(st.integers(3, 10))
    block, features = generated_block(seed, pages)
    ids = block.page_ids()
    few = draw(st.integers(1, 2))
    mask = frozenset(
        pair_key(left, right) for left in ids[:few]
        for right in draw(st.lists(st.sampled_from(ids[few:]), unique=True)))
    return ids, features, mask


def assert_masked_parity(ids, features, mask):
    """masked ≡ dense-restricted ≡ ``python`` backend, byte for byte and
    in the dense sweep's pair order, over the whole F1–F14 battery."""
    battery = full_battery()
    dense = PYTHON.block_scores(ids, features, battery)
    masked_python = PYTHON.block_scores(ids, features, battery, mask=mask)
    masked_numpy = NUMPY.block_scores(ids, features, battery, mask=mask)
    assert dense.keys() == masked_python.keys() == masked_numpy.keys()
    for name in dense:
        # Exactly the candidate pairs, in the dense sweep's order.
        expected_keys = [key for key in dense[name] if key in mask]
        assert list(masked_python[name]) == expected_keys
        assert list(masked_numpy[name]) == expected_keys
        for key in expected_keys:
            reference = bits(dense[name][key])
            assert bits(masked_python[name][key]) == reference, (name, key)
            assert bits(masked_numpy[name][key]) == reference, (name, key)


class TestMaskedScoringParity:
    @settings(max_examples=15, deadline=None)
    @given(masked_inputs())
    def test_masked_equals_dense_restricted_and_backends_agree(self, inputs):
        block, features, mask = inputs
        assert_masked_parity(block.page_ids(), features, mask)

    @settings(max_examples=15, deadline=None)
    @given(burst_inputs())
    def test_coalesced_burst_layout_matches_dense(self, inputs):
        assert_masked_parity(*inputs)

    @settings(max_examples=15, deadline=None)
    @given(one_sided_inputs())
    def test_one_sided_mask_matches_dense(self, inputs):
        assert_masked_parity(*inputs)

    @settings(max_examples=15, deadline=None)
    @given(record_inputs())
    def test_burst_rectangle_over_a_record_matches_dense(self, inputs):
        """Every burst row from the resident record — each page walked
        once, whether it was resident when the record was made, joined
        after, or arrives now — equals the dense sweep byte for byte,
        however small the rectangle."""
        resident, arriving, made, features = inputs
        battery = full_battery()
        dense = PYTHON.block_scores(list(reversed(arriving)) + resident,
                                    features, battery)
        record = NUMPY.resident_record(
            battery, [features[doc_id] for doc_id in resident[:made]])
        for doc_id in resident[made:]:
            page = features[doc_id]
            record.append(page, record.entry(page))
        with mock.patch.object(backends, "_FEW_CELLS", 0):
            rectangle = NUMPY.rectangle(
                battery, [features[doc_id] for doc_id in resident],
                [features[doc_id] for doc_id in arriving], record)
        assert rectangle.rows.keys() == dense.keys()
        for name, rows in rectangle.rows.items():
            for index, new in enumerate(arriving):
                expected = [dense[name][pair_key(new, other)]
                            for other in resident + arriving[:index]]
                assert ([bits(value) for value in rows[index]]
                        == [bits(value) for value in expected]), (name, index)

    @settings(max_examples=8, deadline=None)
    @given(masked_inputs())
    def test_masked_graphs_carry_candidate_edges_only(self, inputs):
        block, features, mask = inputs
        functions = default_functions()
        for backend in ("python", "numpy"):
            graphs = batched_similarity_graphs(block, features, functions,
                                               backend=backend, mask=mask)
            for name, graph in graphs.items():
                assert set(graph.weights) == set(mask), (backend, name)
                assert graph.nodes == block.page_ids()

    @settings(max_examples=6, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 8))
    def test_full_mask_equals_dense(self, seed, pages):
        """A mask naming every pair is byte-for-byte the dense result."""
        block, features = generated_block(seed, pages)
        ids = block.page_ids()
        full = frozenset(pair_key(left, right)
                         for i, left in enumerate(ids)
                         for right in ids[i + 1:])
        battery = full_battery()
        dense = PYTHON.block_scores(ids, features, battery)
        for backend in (PYTHON, NUMPY):
            masked = backend.block_scores(ids, features, battery, mask=full)
            for name in dense:
                assert list(masked[name]) == list(dense[name])
                for key, value in dense[name].items():
                    assert bits(masked[name][key]) == bits(value)

    @settings(max_examples=6, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 8))
    def test_empty_mask_scores_nothing(self, seed, pages):
        block, features = generated_block(seed, pages)
        ids = block.page_ids()
        for backend in (PYTHON, NUMPY):
            scores = backend.block_scores(ids, features, full_battery(),
                                          mask=frozenset())
            assert all(weights == {} for weights in scores.values())
