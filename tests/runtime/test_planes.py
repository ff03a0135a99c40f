"""The columnar plane codec: round trips, views, eligibility, fallback."""

from __future__ import annotations

import pickle
from collections import Counter

import pytest

np = pytest.importorskip("numpy")

from repro.extraction.features import PageFeatures
from repro.graph.entity_graph import WeightedPairGraph
from repro.runtime import planes as planes_module
from repro.runtime import shards as shards_module
from repro.runtime.planes import (
    FeaturePlanes,
    GraphPlaneMap,
    PlaneBuffer,
    PlaneEncodeError,
    PlaneFeatureMap,
    PlaneWriter,
    encode_features,
    encode_graphs,
    features_eligible,
    graphs_eligible,
)
from repro.runtime.shards import ShardStore, load_shard


def make_page(index: int) -> PageFeatures:
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
        tfidf={f"t{j}": 0.1 * (j + 1) + index * 0.01
               for j in range(index % 5 + 1)},
        n_tokens=100 + index,
    )


def make_features(count: int = 8) -> dict[str, PageFeatures]:
    return {f"doc-{index}": make_page(index) for index in range(count)}


def roundtrip_features(features):
    """Encode into a raw buffer and decode back, no shard involved."""
    writer = PlaneWriter()
    header = encode_features(features, writer)
    buffer = bytearray(writer.nbytes + 64)
    writer.write_into(memoryview(buffer), 64)
    return PlaneFeatureMap(FeaturePlanes(
        header, PlaneBuffer(memoryview(buffer).toreadonly(), 64)))


def assert_pages_identical(original: PageFeatures, rebuilt: PageFeatures):
    """Field equality *and* dict iteration order — the fold order."""
    assert original.doc_id == rebuilt.doc_id
    assert original.url == rebuilt.url
    assert original.most_frequent_name == rebuilt.most_frequent_name
    assert original.closest_name_to_query == rebuilt.closest_name_to_query
    assert original.concept_vector == rebuilt.concept_vector
    assert list(original.concept_vector) == list(rebuilt.concept_vector)
    assert original.concept_set == rebuilt.concept_set
    assert original.organizations == rebuilt.organizations
    assert original.other_persons == rebuilt.other_persons
    assert original.locations == rebuilt.locations
    assert original.tfidf == rebuilt.tfidf
    assert list(original.tfidf) == list(rebuilt.tfidf)
    assert original.n_tokens == rebuilt.n_tokens


class TestFeatureRoundTrip:
    def test_in_memory_roundtrip_is_bit_identical(self):
        features = make_features()
        rebuilt = roundtrip_features(features)
        assert list(rebuilt) == list(features)
        for doc_id in features:
            assert_pages_identical(features[doc_id], rebuilt[doc_id])

    def test_derived_families_are_precomputed(self):
        writer = PlaneWriter()
        header = encode_features(make_features(), writer)
        names = [name for name, _ in header.families]
        assert "top_tfidf" in names
        assert "entity_context" in names

    def test_plane_map_refuses_pickle(self):
        rebuilt = roundtrip_features(make_features())
        with pytest.raises(TypeError, match="must not be pickled"):
            pickle.dumps(rebuilt)

    @pytest.mark.parametrize("prefer_shm", [True, False])
    def test_roundtrip_through_shard_segment(self, prefer_shm):
        """shm and the file fallback read the identical plane bytes."""
        features = make_features()
        writer = PlaneWriter()
        header = encode_features(features, writer)
        with ShardStore(prefer_shared_memory=prefer_shm) as store:
            handle = store.publish(_FeatureProbe(header), planes=writer)
            if prefer_shm and handle.via != "shm":  # pragma: no cover
                pytest.skip("no shared memory on this host")
            shards_module._LOCAL.pop(handle.shard_id)
            probe = load_shard(handle)
            rebuilt = probe.mapping
            assert isinstance(rebuilt, PlaneFeatureMap)
            for doc_id in features:
                assert_pages_identical(features[doc_id], rebuilt[doc_id])
            del probe, rebuilt
            _drain()


class TestPlaneRecord:
    """A plane record holds the block's whole CSR views; the layout, not
    the plane, picks the rows it stacks."""

    @staticmethod
    def record(rebuilt, name="tfidf"):
        from repro.similarity.batch import _FamilyRecord
        return _FamilyRecord("vector", None,
                             plane=rebuilt.planes.family(name))

    def test_plane_record_holds_the_views_zero_copy(self):
        rebuilt = roundtrip_features(make_features(6))
        family = rebuilt.planes.family("tfidf")
        record = self.record(rebuilt)
        assert record.columns is family.cols
        assert record.values is family.values
        assert record.moments[:, 0].tolist() == np.diff(
            family.indptr).tolist()

    def test_stacked_rows_are_the_matching_pages(self):
        from repro.similarity.vectors import norm
        features = make_features(6)
        rebuilt = roundtrip_features(features)
        vocab = rebuilt.planes.family("tfidf").vocab()
        rows = [4, 1]
        stacked = self.record(rebuilt).family(np.asarray(rows), None)
        assert stacked.values.shape == (len(rows), len(vocab))
        for out, row in enumerate(rows):
            page = features[f"doc-{row}"]
            held = np.flatnonzero(stacked.presence[out]).tolist()
            assert {vocab[column]: stacked.values[out, column]
                    for column in held} == page.tfidf
            assert stacked.norms[out] == norm(page.tfidf)

    def test_no_rows_stack_an_empty_family(self):
        rebuilt = roundtrip_features(make_features(4))
        stacked = self.record(rebuilt).family(np.zeros(0, dtype=np.intp),
                                              None)
        assert stacked.values.shape[0] == 0 and stacked.nnz.size == 0

    def test_views_are_read_only(self):
        rebuilt = roundtrip_features(make_features(4))
        family = rebuilt.planes.family("concept")
        with pytest.raises(ValueError):
            family.values[0] = 1.0


class TestEligibility:
    def test_plain_feature_dict_is_eligible(self):
        assert features_eligible(make_features())

    def test_rejects_empty_none_and_foreign_types(self):
        assert not features_eligible(None)
        assert not features_eligible({})
        assert not features_eligible({"a": object()})
        assert not features_eligible(roundtrip_features(make_features()))

    def test_rejects_dict_subclasses(self):
        class Custom(dict):
            pass

        assert not features_eligible(Custom(make_features()))

    def test_graph_eligibility(self):
        graph = WeightedPairGraph(nodes=["a", "b"],
                                  weights={("a", "b"): 0.5})
        assert graphs_eligible({"F1": graph})
        assert not graphs_eligible({})
        assert not graphs_eligible(None)
        assert not graphs_eligible({"F1": object()})


class TestEncodeErrors:
    def test_unsortable_vocabulary_raises_encode_error(self):
        features = make_features(2)
        bad = features["doc-1"]
        object.__setattr__(bad, "tfidf", {"x": 1.0, 3: 2.0})
        with pytest.raises(PlaneEncodeError):
            encode_features(features, PlaneWriter())

    def test_non_string_graph_node_raises_encode_error(self):
        graph = WeightedPairGraph(nodes=["a", 3],
                                  weights={("a", 3): 0.5})
        with pytest.raises(PlaneEncodeError):
            encode_graphs({"F1": graph}, PlaneWriter())


class TestGraphRoundTrip:
    def test_graphs_rebuild_in_stored_order(self):
        graphs = {
            "F1": WeightedPairGraph(
                nodes=["a", "b", "c"],
                weights={("a", "c"): 0.5, ("a", "b"): 0.25}),
            "F2": WeightedPairGraph(nodes=["x"], weights={}),
        }
        writer = PlaneWriter()
        header = encode_graphs(graphs, writer)
        buffer = bytearray(max(1, writer.nbytes))
        writer.write_into(memoryview(buffer), 0)
        rebuilt = GraphPlaneMap(
            header, PlaneBuffer(memoryview(buffer).toreadonly(), 0))
        assert list(rebuilt) == ["F1", "F2"]
        for name, graph in graphs.items():
            assert rebuilt[name].nodes == graph.nodes
            assert rebuilt[name].weights == graph.weights
            assert list(rebuilt[name].weights) == list(graph.weights)

    def test_graph_map_refuses_pickle(self):
        graphs = {"F1": WeightedPairGraph(nodes=["a"], weights={})}
        writer = PlaneWriter()
        header = encode_graphs(graphs, writer)
        buffer = bytearray(max(1, writer.nbytes))
        writer.write_into(memoryview(buffer), 0)
        rebuilt = GraphPlaneMap(
            header, PlaneBuffer(memoryview(buffer).toreadonly(), 0))
        with pytest.raises(TypeError, match="must not be pickled"):
            pickle.dumps(rebuilt)


class TestPlaneWriter:
    def test_offsets_are_64_byte_aligned(self):
        writer = PlaneWriter()
        first = writer.add(np.arange(3, dtype=np.int64))
        second = writer.add(np.arange(5, dtype=np.float64))
        assert first.offset % 64 == 0
        assert second.offset % 64 == 0
        assert second.offset >= first.offset + 24

    def test_write_into_respects_base(self):
        writer = PlaneWriter()
        spec = writer.add(np.asarray([1.5, -2.5], dtype=np.float64))
        buffer = bytearray(writer.nbytes + 128)
        writer.write_into(memoryview(buffer), 128)
        view = PlaneBuffer(memoryview(buffer).toreadonly(), 128)
        assert view.array(spec).tolist() == [1.5, -2.5]


class _FeatureProbe:
    """Payload carrying a feature-plane header through a shard."""

    def __init__(self, header, mapping=None):
        self.header = header
        self.mapping = mapping

    def _bind_planes(self, view, base):
        return _FeatureProbe(self.header, PlaneFeatureMap(
            FeaturePlanes(self.header, PlaneBuffer(view, base))))


def _drain():
    while shards_module._ATTACHED:
        shards_module._pop_detach(next(iter(shards_module._ATTACHED)))
    shards_module._reap_zombies()
