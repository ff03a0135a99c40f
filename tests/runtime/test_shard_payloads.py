"""What crosses a shard: payload round trips over both transports.

A worker reads one wire format — the fan-out's payload list pickled
into a shared-memory segment, or into a scratch file where shared memory
is missing.  These tests publish real payloads (feature dicts, graphs,
block shards), drop the publisher's registry entry so the load takes
the worker's attach path, and check that the copy is the original:
equal values, the same dict iteration order, the same types.
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
from repro.runtime.shards import ShardStore, load_shard
from repro.runtime.tasks import (
    BlockShard,
    PredictBlockTask,
    ShardedBlockTask,
    run_predict_block,
    run_sharded_block,
)
from repro.similarity.batch import BlockState, _top_tfidf
from repro.similarity.extended import _entity_context

TRANSPORTS = pytest.mark.parametrize("prefer_shm", [True, False],
                                     ids=["shm", "file"])


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


def shipped(payload, prefer_shm: bool):
    """Publish ``payload`` and read it back the way a worker forked
    before the publish does; the store is closed before returning."""
    with ShardStore(prefer_shared_memory=prefer_shm) as store:
        handle = store.publish(payload, label="payload")
        assert handle.via == ("shm" if prefer_shm else "file")
        shards_module._LOCAL.pop(handle.shard_id)
        copy = load_shard(handle)
        shards_module._ATTACHED.clear()
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
    @TRANSPORTS
    def test_features_roundtrip_through_shard(self, prefer_shm):
        features = make_features()
        copy = shipped(features, prefer_shm)
        assert list(copy) == list(features)
        for doc_id in features:
            assert_pages_identical(features[doc_id], copy[doc_id])

    @TRANSPORTS
    def test_narrowed_bundle_keeps_its_read_set(self, prefer_shm):
        """A bundle extracted for a read set must still refuse the fields
        it does not hold after the crossing."""
        narrowed = make_page(3, reads=frozenset({"tfidf"}))
        copy = shipped({"doc-3": narrowed}, prefer_shm)["doc-3"]
        assert copy.reads == frozenset({"tfidf"})
        assert copy.covers(frozenset({"tfidf"}))
        assert not copy.covers(frozenset({"concept_vector"}))
        assert not copy.covers(None)

    @TRANSPORTS
    def test_dict_subclass_payload_keeps_its_type(self, prefer_shm):
        features = FeatureDict(make_features(3))
        copy = shipped(features, prefer_shm)
        assert type(copy) is FeatureDict
        assert list(copy) == list(features)

    @TRANSPORTS
    def test_derived_families_match_over_unpickled_features(self,
                                                            prefer_shm):
        """Families a worker derives from its copy (the F12 top-TF-IDF
        vector, the F13 entity context) stack to the same bytes."""
        features = make_features(6)
        copy = shipped(features, prefer_shm)
        ids = list(features)
        for spec in (("top_tfidf", "vector", _top_tfidf),
                     ("entity_context", "counter", _entity_context),
                     ("tfidf", "vector", lambda page: page.tfidf)):
            reference = BlockState(ids, features).family(*spec)
            candidate = BlockState(ids, copy).family(*spec)
            assert reference.values.tobytes() == candidate.values.tobytes()
            assert reference.values.shape == candidate.values.shape


class TestGraphRoundTrip:
    @TRANSPORTS
    def test_graphs_rebuild_in_stored_order(self, prefer_shm):
        graphs = {
            "F1": WeightedPairGraph.from_scores(
                ["a", "b", "c"], {("a", "c"): 0.5, ("a", "b"): 0.25}),
            "F2": WeightedPairGraph(["x"]),
        }
        copy = shipped(graphs, prefer_shm)
        assert list(copy) == ["F1", "F2"]
        for name, graph in graphs.items():
            assert copy[name].nodes == graph.nodes
            assert copy[name].weights == graph.weights
            assert list(copy[name].weights) == list(graph.weights)

    @TRANSPORTS
    def test_non_string_nodes_roundtrip(self, prefer_shm):
        """The pickled format carries any hashable node id."""
        graph = WeightedPairGraph.from_scores([7, 3], {(3, 7): 0.5})
        copy = shipped({"F1": graph}, prefer_shm)["F1"]
        assert copy.nodes == [7, 3]
        assert copy.weights == {(3, 7): 0.5}


class TestBlockShardRoundTrip:
    @TRANSPORTS
    def test_shared_state_crosses_once(self, prefer_shm):
        """The pickle memo deduplicates what the payloads share: the
        worker's copies share one config object again."""
        config = ResolverConfig()
        shard = BlockShard(kind="predict",
                           payloads=({"config": config, "index": 0},
                                     {"config": config, "index": 1}))
        copy = shipped(shard, prefer_shm)
        assert copy.kind == "predict"
        assert [payload["index"] for payload in copy.payloads] == [0, 1]
        first, second = (payload["config"] for payload in copy.payloads)
        assert first is second
        assert first == config

    @TRANSPORTS
    def test_handle_nbytes_is_the_pickle_length(self, prefer_shm):
        payload = BlockShard(kind="fit",
                             payloads=tuple(make_features(4).values()))
        with ShardStore(prefer_shared_memory=prefer_shm) as store:
            handle = store.publish(payload)
        assert handle.nbytes == len(
            pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))

    @TRANSPORTS
    def test_predict_task_from_segment_matches_inline(self, prefer_shm,
                                                      small_dataset,
                                                      pipeline):
        """The worker body over an attached shard predicts what the
        inline body predicts over the original payload."""
        config = ResolverConfig()
        model = EntityResolver(config).fit(small_dataset, training_seed=0,
                                           pipeline=pipeline)
        block = small_dataset.collections[0]
        payload = PredictBlockTask(
            config=config, fitted=model.blocks[block.query_name],
            block=block, graphs=None, pipeline=pipeline, evaluate=False)
        inline = run_predict_block(payload)
        with ShardStore(prefer_shared_memory=prefer_shm) as store:
            handle = store.publish(
                BlockShard(kind="predict", payloads=(payload,)))
            shards_module._LOCAL.pop(handle.shard_id)
            result = run_sharded_block(ShardedBlockTask(handle=handle,
                                                        index=0))
            shards_module._ATTACHED.clear()
        assert result[:2] == inline[:2]

    @TRANSPORTS
    def test_stale_handle_cannot_attach_after_close(self, prefer_shm):
        store = ShardStore(prefer_shared_memory=prefer_shm)
        handle = store.publish({"gone": True})
        store.close()
        with pytest.raises((FileNotFoundError, OSError)):
            load_shard(handle)
        assert handle.shard_id not in shards_module._ATTACHED


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
