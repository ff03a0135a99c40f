"""Plane-path parity: shard views score bit-identically to dicts.

The zero-copy plane encoding (:mod:`repro.runtime.planes`) promises that
a worker scoring ``np.frombuffer`` views over a shard segment produces
the *same bytes* as the parent scoring the original feature dicts —
under both the ``python`` and ``numpy`` backends.  The opt-in
``numpy32`` backend is the deliberate exception: its float32 pair dots
carry rounding, bounded here at 1e-4 absolute on [0, 1] scores, with the
integer-exact kernels still required to match bit-for-bit.

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
from repro.runtime import planes as planes_module
from repro.runtime.planes import (
    FeaturePlanes,
    PlaneBuffer,
    PlaneFeatureMap,
    PlaneWriter,
    encode_features,
)
from repro.similarity.backends import BACKENDS
from repro.similarity.extended import full_battery

PYTHON = BACKENDS.get("python")
NUMPY = BACKENDS.get("numpy")
NUMPY32 = BACKENDS.get("numpy32")

#: Integer/string kernels whose arithmetic never leaves int64 — required
#: to stay bit-identical even under numpy32 (see Numpy32Backend docs).
EXACT_UNDER_FLOAT32 = {"F2", "F4", "F5", "F6", "F11", "F13"}

#: Absolute tolerance the float-vector measures get under numpy32.
FLOAT32_TOLERANCE = 1e-4


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


def plane_view(features) -> PlaneFeatureMap:
    """Encode the dict and rebuild the view a shard worker would see."""
    writer = PlaneWriter()
    header = encode_features(features, writer)
    buffer = bytearray(writer.nbytes + 64)
    writer.write_into(memoryview(buffer), 64)
    return PlaneFeatureMap(FeaturePlanes(
        header, PlaneBuffer(memoryview(buffer).toreadonly(), 64)))


block_inputs = st.tuples(st.integers(0, 10_000), st.integers(2, 12),
                         st.floats(1.0, 2.5))


class TestShardViewBitIdentity:
    @settings(max_examples=12, deadline=None)
    @given(block_inputs)
    def test_numpy_scores_from_views_match_dict_scores(self, inputs):
        seed, pages, alpha = inputs
        block, features = generated_block(seed, pages, alpha)
        ids = block.page_ids()
        battery = full_battery()
        reference = NUMPY.block_scores(ids, features, battery)
        candidate = NUMPY.block_scores(ids, plane_view(features), battery)
        assert reference.keys() == candidate.keys()
        for name in reference:
            assert list(reference[name]) == list(candidate[name])
            for key, value in reference[name].items():
                assert bits(value) == bits(candidate[name][key]), \
                    (name, key)

    @settings(max_examples=8, deadline=None)
    @given(block_inputs)
    def test_python_scores_from_rebuilt_pages_match(self, inputs):
        """The scalar fallback path over lazily rebuilt PageFeatures."""
        seed, pages, alpha = inputs
        block, features = generated_block(seed, pages, alpha)
        ids = block.page_ids()
        battery = full_battery()
        reference = PYTHON.block_scores(ids, features, battery)
        candidate = PYTHON.block_scores(ids, plane_view(features), battery)
        for name in reference:
            assert list(reference[name]) == list(candidate[name])
            for key, value in reference[name].items():
                assert bits(value) == bits(candidate[name][key]), \
                    (name, key)

    @settings(max_examples=8, deadline=None)
    @given(block_inputs, st.integers(2, 5))
    def test_masked_scores_from_views_match(self, inputs, mask_span):
        from repro.graph.entity_graph import pair_key

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
        views = plane_view(features)
        for mask in (square, rectangle):
            reference = NUMPY.block_scores(ids, features, battery, mask=mask)
            candidate = NUMPY.block_scores(ids, views, battery, mask=mask)
            for name in reference:
                assert list(reference[name]) == list(candidate[name])
                for key, value in reference[name].items():
                    assert bits(value) == bits(candidate[name][key])


class TestNumpy32Tolerance:
    @settings(max_examples=12, deadline=None)
    @given(block_inputs)
    def test_float32_scores_stay_within_tolerance(self, inputs):
        seed, pages, alpha = inputs
        block, features = generated_block(seed, pages, alpha)
        ids = block.page_ids()
        battery = full_battery()
        reference = NUMPY.block_scores(ids, features, battery)
        candidate = NUMPY32.block_scores(ids, plane_view(features), battery)
        assert reference.keys() == candidate.keys()
        for name in reference:
            assert list(reference[name]) == list(candidate[name])
            for key, value in reference[name].items():
                approx = candidate[name][key]
                if name in EXACT_UNDER_FLOAT32:
                    assert bits(value) == bits(approx), (name, key)
                else:
                    assert abs(value - approx) <= FLOAT32_TOLERANCE, \
                        (name, key, value, approx)

    def test_numpy32_is_registered_but_never_the_default(self, monkeypatch):
        from repro.similarity.backends import default_backend

        assert BACKENDS.get("numpy32") is NUMPY32
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert default_backend() == "python"

    def test_numpy32_never_serializes_into_models(self):
        """A model fitted under numpy32 must load exactly elsewhere:
        the serialized config cannot pin a backend name."""
        config = ResolverConfig(backend="numpy32")
        assert "numpy32" not in repr(config.to_dict())


class TestDecodedObjectBitIdentity:
    @settings(max_examples=10, deadline=None)
    @given(block_inputs)
    def test_rebuilt_pages_equal_originals_with_order(self, inputs):
        seed, pages, alpha = inputs
        _, features = generated_block(seed, pages, alpha)
        rebuilt = plane_view(features)
        assert list(rebuilt) == list(features)
        for doc_id, page in features.items():
            twin = rebuilt[doc_id]
            assert page.tfidf == twin.tfidf
            assert list(page.tfidf) == list(twin.tfidf)
            assert page.concept_vector == twin.concept_vector
            assert list(page.concept_vector) == list(twin.concept_vector)
            assert page.concept_set == twin.concept_set
            assert page.organizations == twin.organizations
            assert page.other_persons == twin.other_persons
            assert page.locations == twin.locations
            assert page.n_tokens == twin.n_tokens
