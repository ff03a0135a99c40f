"""Edge blocks through the similarity stage and the serving session.

Previously untested degenerate shapes: blocks with zero or one page
flowing through ``SimilarityGraphs`` (no pairs to score) and
``ResolutionSession.resolve`` (empty requests, cold single-page names).
Everything is exercised under both scoring backends — the edge masks are
where vectorized kernels classically diverge from scalar code.
"""

from __future__ import annotations

import pytest

from repro.core.config import ResolverConfig
from repro.core.resolver import EntityResolver
from repro.corpus.datasets import www05_like
from repro.corpus.documents import DocumentCollection, NameCollection, WebPage
from repro.pipeline.session import ResolutionSession
from repro.runtime.batch import batched_similarity_graphs
from repro.similarity.extended import full_battery

BACKENDS = ("python", "numpy")


@pytest.fixture(scope="module")
def fitted():
    """A model fitted on one small, normal block."""
    collection = www05_like(seed=1, pages_per_name=8,
                            names=["William Cohen"])
    resolver = EntityResolver(ResolverConfig())
    model = resolver.fit(collection, training_seed=0)
    return collection, model, resolver.pipeline_for(collection)


@pytest.fixture(autouse=True)
def _restore_model_config(fitted):
    """Tests swap the shared model's config per backend; undo it so no
    state leaks across the module's tests."""
    _, model, _ = fitted
    original = model.config
    yield
    model.config = original


def _single_page_block() -> NameCollection:
    return NameCollection(query_name="Solo Person", pages=[WebPage(
        doc_id="solo/000", query_name="Solo Person",
        url="http://solo.example.org/about", title="solo",
        text="a single page about one person")])


def _empty_block() -> NameCollection:
    return NameCollection(query_name="Empty Person", pages=[])


class TestSimilarityGraphsEdgeBlocks:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("block_builder", [_empty_block,
                                               _single_page_block])
    def test_no_pair_blocks_produce_empty_graphs(self, fitted, backend,
                                                 block_builder):
        _, _, pipeline = fitted
        block = block_builder()
        features = pipeline.extract_block(block)
        graphs = batched_similarity_graphs(block, features, full_battery(),
                                           backend=backend)
        assert set(graphs) == {function.name
                               for function in full_battery()}
        for graph in graphs.values():
            assert graph.nodes == block.page_ids()
            assert graph.weights == {}

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_predict_collection_with_edge_blocks(self, fitted, backend):
        collection, model, pipeline = fitted
        model.config = ResolverConfig(backend=backend)
        mixed = DocumentCollection(
            name="mixed",
            collections=[collection.collections[0], _single_page_block(),
                         _empty_block()],
            metadata=dict(collection.metadata))
        prediction = model.predict_collection(
            mixed, pipeline=pipeline,
            model_block=collection.collections[0].query_name)
        by_name = {entry.query_name: entry for entry in prediction.blocks}
        assert len(by_name["Solo Person"].predicted) == 1
        assert len(by_name["Empty Person"].predicted) == 0
        assert len(by_name["William Cohen"].predicted) >= 1


class TestSessionEdgeRequests:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_empty_request_resolves_to_nothing(self, fitted, backend):
        collection, model, pipeline = fitted
        model.config = ResolverConfig(backend=backend)
        session = ResolutionSession(model, pipeline=pipeline)
        assert session.resolve([]) == []
        assert session.stats.pages == 0

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_cold_single_page_founds_singleton_entity(self, fitted,
                                                      backend):
        collection, model, pipeline = fitted
        model.config = ResolverConfig(backend=backend)
        session = ResolutionSession(
            model, pipeline=pipeline,
            model_block=collection.collections[0].query_name)
        page = _single_page_block().pages[0]
        assignment = session.resolve(page)[0]
        assert assignment.created_new_cluster
        assert assignment.cluster_index == 0
        assert assignment.link_probability == 0.0
        clusters = session.clusters("Solo Person")
        assert [set(cluster) for cluster in clusters] == [{"solo/000"}]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_second_page_scores_against_singleton(self, fitted, backend):
        collection, model, pipeline = fitted
        model.config = ResolverConfig(backend=backend)
        session = ResolutionSession(
            model, pipeline=pipeline,
            model_block=collection.collections[0].query_name)
        first = _single_page_block().pages[0]
        second = WebPage(doc_id="solo/001", query_name="Solo Person",
                         url="http://solo.example.org/contact",
                         title="solo", text="another page, same person")
        session.resolve(first)
        assignment = session.resolve(second)[0]
        # Either outcome is legitimate; the point is the one-vs-many
        # scoring path ran against a single existing page without error.
        assert assignment.doc_id == "solo/001"
        assert assignment.cluster_index in (0, 1)

    def test_backends_agree_on_session_assignments(self, fitted):
        collection, model, pipeline = fitted
        block = collection.collections[0]
        outcomes = []
        for backend in BACKENDS:
            model.config = ResolverConfig(backend=backend)
            session = ResolutionSession(model, pipeline=pipeline)
            pages = list(block.pages)
            session.resolve(pages[:4])
            log = [(a.doc_id, a.cluster_index, a.created_new_cluster,
                    a.link_probability)
                   for page in pages[4:]
                   for a in session.resolve(page)]
            outcomes.append(log)
        assert outcomes[0] == outcomes[1]
