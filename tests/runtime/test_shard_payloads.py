"""What crosses the pool's pipe: payloads and results, round-tripped.

A parallel fan-out ships its payloads, and its workers return their
results, as pickles through the process pool's own pipe
(``pickle.dumps`` at the default protocol, as the pool's queues do).
These tests send real payloads (feature dicts, graphs, task payloads)
and real task results through that round trip and check that the copy
is the original: equal values, the same dict iteration order, the same
types.
"""

from __future__ import annotations

import pickle
from collections import Counter

import pytest

np = pytest.importorskip("numpy")

from repro.core.config import ResolverConfig
from repro.core.resolver import EntityResolver
from repro.extraction.features import PageFeatures
from repro.graph.entity_graph import WeightedPairGraph
from repro.runtime import shards as shards_module
from repro.runtime.shards import ShardStore
from repro.runtime.tasks import (
    FitBlockTask,
    PredictBlockTask,
    PrepareBlockTask,
    run_fit_block,
    run_predict_block,
    run_prepare_block,
)
from repro.similarity.batch import BlockState, _top_tfidf
from repro.similarity.extended import _entity_context, full_battery


def make_page(index: int, reads=None) -> PageFeatures:
    """A deterministic page with every feature family populated."""
    return PageFeatures(
        doc_id=f"doc-{index}",
        url=f"http://example.com/{index}",
        most_frequent_name=f"Name {index % 3}",
        closest_name_to_query=f"Close {index % 2}",
        concept_vector={f"c{j}": (j + index) * 0.37
                        for j in range(index % 4 + 1)},
        concept_set=frozenset(f"c{j}" for j in range(index % 4 + 1)),
        organizations=Counter({f"org{j}": j + 1 for j in range(index % 3)}),
        other_persons=Counter({f"person{j}": 1 for j in range(index % 2)}),
        locations=Counter({"metropolis": 2} if index % 2 else {}),
        tfidf={f"t{(j * 7 + index) % 11}": 0.1 * (j + 1) + index * 0.01
               for j in range(index % 5 + 1)},
        n_tokens=100 + index,
        reads=reads,
    )


class FeatureDict(dict):
    """A mapping subclass a caller might hand a fan-out."""


def make_features(count: int = 8) -> dict[str, PageFeatures]:
    return {f"doc-{index}": make_page(index) for index in range(count)}


def shipped(payload):
    """``payload`` as a worker reads it: pickled and unpickled once."""
    copy = pickle.loads(pickle.dumps(payload))
    assert copy is not payload
    return copy


def assert_pages_identical(original: PageFeatures, rebuilt: PageFeatures):
    """Field equality *and* dict iteration order — the fold order."""
    assert original == rebuilt
    assert list(original.concept_vector) == list(rebuilt.concept_vector)
    assert list(original.tfidf) == list(rebuilt.tfidf)
    assert list(original.organizations) == list(rebuilt.organizations)
    assert type(rebuilt.organizations) is Counter
    assert type(rebuilt.concept_set) is frozenset


class TestFeatureRoundTrip:
    def test_features_roundtrip(self):
        features = make_features()
        copy = shipped(features)
        assert list(copy) == list(features)
        for doc_id in features:
            assert_pages_identical(features[doc_id], copy[doc_id])

    def test_narrowed_bundle_keeps_its_read_set(self):
        """A bundle extracted for a read set must still refuse the fields
        it does not hold after the crossing."""
        narrowed = make_page(3, reads=frozenset({"tfidf"}))
        copy = shipped({"doc-3": narrowed})["doc-3"]
        assert copy.reads == frozenset({"tfidf"})
        assert copy.covers(frozenset({"tfidf"}))
        assert not copy.covers(frozenset({"concept_vector"}))
        assert not copy.covers(None)

    def test_dict_subclass_payload_keeps_its_type(self):
        features = FeatureDict(make_features(3))
        copy = shipped(features)
        assert type(copy) is FeatureDict
        assert list(copy) == list(features)

    def test_derived_families_match_over_unpickled_features(self):
        """Families a worker derives from its copy (the F12 top-TF-IDF
        vector, the F13 entity context) stack to the same bytes."""
        features = make_features(6)
        copy = shipped(features)
        ids = list(features)
        for spec in (("top_tfidf", "vector", _top_tfidf),
                     ("entity_context", "counter", _entity_context),
                     ("tfidf", "vector", lambda page: page.tfidf)):
            reference = BlockState(ids, features).family(*spec)
            candidate = BlockState(ids, copy).family(*spec)
            assert reference.values.tobytes() == candidate.values.tobytes()
            assert reference.values.shape == candidate.values.shape


class TestGraphRoundTrip:
    def test_graphs_rebuild_in_stored_order(self):
        graphs = {
            "F1": WeightedPairGraph.from_scores(
                ["a", "b", "c"], {("a", "c"): 0.5, ("a", "b"): 0.25}),
            "F2": WeightedPairGraph(["x"]),
        }
        copy = shipped(graphs)
        assert list(copy) == ["F1", "F2"]
        for name, graph in graphs.items():
            assert copy[name].nodes == graph.nodes
            assert copy[name].weights == graph.weights
            assert list(copy[name].weights) == list(graph.weights)

    def test_non_string_nodes_roundtrip(self):
        """The pickled format carries any hashable node id."""
        graph = WeightedPairGraph.from_scores([7, 3], {(3, 7): 0.5})
        copy = shipped({"F1": graph})["F1"]
        assert copy.nodes == [7, 3]
        assert copy.weights == {(3, 7): 0.5}


class TestChunkRoundTrip:
    def test_shared_state_crosses_once(self):
        """A chunk is one pickle, whose memo deduplicates what its
        payloads share: the worker's copies share one config again."""
        config = ResolverConfig()
        chunk = [{"config": config, "index": 0},
                 {"config": config, "index": 1}]
        copy = shipped(chunk)
        assert [payload["index"] for payload in copy] == [0, 1]
        first, second = (payload["config"] for payload in copy)
        assert first is second
        assert first == config

    def test_predict_task_over_a_shipped_payload_matches_inline(
            self, small_dataset, pipeline):
        """The task body over the worker's copy of a payload predicts
        what it predicts over the original."""
        config = ResolverConfig()
        model = EntityResolver(config).fit(small_dataset, training_seed=0,
                                           pipeline=pipeline)
        block = small_dataset.collections[0]
        payload = PredictBlockTask(
            config=config, fitted=model.blocks[block.query_name],
            block=block, graphs=None, pipeline=pipeline, evaluate=False)
        inline = run_predict_block(payload)
        result = shipped(run_predict_block(shipped(payload)))
        assert result[:2] == inline[:2]


class TestResultReturnTrip:
    """A worker's result crosses back the same way, and the caller keeps
    it: prepared graphs feed the later passes, fitted state the model."""

    def test_prepared_features_and_graphs_return_bit_identical(
            self, small_dataset, pipeline):
        block = small_dataset.collections[0]
        payload = PrepareBlockTask(pipeline=pipeline, block=block,
                                   functions=tuple(full_battery()),
                                   backend="numpy")
        name, features, graphs, _ = run_prepare_block(payload)
        copy_name, copy_features, copy_graphs, _ = shipped(
            run_prepare_block(shipped(payload)))
        assert copy_name == name
        assert list(copy_features) == list(features)
        for doc_id, page in features.items():
            assert_pages_identical(page, copy_features[doc_id])
        assert list(copy_graphs) == list(graphs)
        for function, graph in graphs.items():
            layout, values = graph.vector()
            copy_layout, copy_values = copy_graphs[function].vector()
            assert copy_layout.keys() == layout.keys()
            assert type(copy_values) is type(values)
            assert (np.asarray(copy_values).tobytes()
                    == np.asarray(values).tobytes())

    def test_evaluated_block_returns_unchanged(self, small_dataset,
                                              pipeline):
        config = ResolverConfig()
        model = EntityResolver(config).fit(small_dataset, training_seed=0,
                                           pipeline=pipeline)
        block = small_dataset.collections[0]
        payload = PredictBlockTask(
            config=config, fitted=model.blocks[block.query_name],
            block=block, graphs=None, pipeline=pipeline, evaluate=True)
        name, resolution, _ = run_predict_block(payload)
        copy_name, copy_resolution, _ = shipped(run_predict_block(
            shipped(payload)))
        assert copy_name == name
        assert copy_resolution == resolution
        assert copy_resolution.report == resolution.report

    def test_fitted_state_returns_unchanged(self, small_dataset, pipeline):
        block = small_dataset.collections[0]
        payload = FitBlockTask(config=ResolverConfig(), block=block,
                               graphs=None, pipeline=pipeline,
                               training_seed=0)
        name, fitted, _ = run_fit_block(payload)
        copy_name, copy_fitted, _ = shipped(run_fit_block(shipped(payload)))
        assert copy_name == name
        assert copy_fitted.to_dict() == fitted.to_dict()


def test_unpicklable_payload_publishes_nothing():
    """Publication pickles before it allocates: a payload that cannot
    be pickled leaves no segment and no registry entry behind."""
    registered = dict(shards_module._LOCAL)
    with ShardStore() as store:
        with pytest.raises((pickle.PicklingError, AttributeError,
                            TypeError)):
            store.publish({"body": lambda page: page})
        assert store._segments == []
        assert store._shard_ids == []
    assert shards_module._LOCAL == registered
