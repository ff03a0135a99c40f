"""Edge cases and failure injection across the stack."""

from dataclasses import replace

import pytest

from repro.baselines import (
    AgglomerativeBaseline,
    ClusteringSelectionBaseline,
    DynamicSelectionBaseline,
    MajorityVoteBaseline,
    OracleBestFunctionBaseline,
    SwooshBaseline,
    TrainedBestFunctionBaseline,
    WeightedVoteBaseline,
)
from repro.core import EntityResolver, ResolverConfig
from repro.core.clusterers import cluster_combination
from repro.core.combination import build_combiner
from repro.core.labels import TrainingSample
from repro.core.registry import CLUSTERERS, COMBINERS
from repro.corpus.datasets import custom_dataset
from repro.corpus.documents import NameCollection, WebPage
from repro.corpus.generator import GeneratorConfig
from repro.extraction.pipeline import ExtractionPipeline
from repro.graph.validation import is_partition
from repro.runtime.batch import batched_similarity_graphs
from repro.similarity.functions import default_functions


def tiny_block(n_pages=2, n_persons=1):
    dataset = custom_dataset(
        ["Max Tiny"], seed=0,
        config=GeneratorConfig(pages_per_name=n_pages),
        cluster_counts={"Max Tiny": n_persons})
    return dataset, dataset.by_name("Max Tiny")


class TestTinyBlocks:
    def test_two_pages_same_person(self, fit_evaluate):
        dataset, block = tiny_block(n_pages=2, n_persons=1)
        resolver = EntityResolver(ResolverConfig())
        result = fit_evaluate(resolver, dataset, training_seed=0)
        assert is_partition(
            [set(c) for c in result.blocks[0].predicted], block.page_ids())

    def test_two_pages_two_persons(self, fit_evaluate):
        dataset, block = tiny_block(n_pages=2, n_persons=2)
        resolver = EntityResolver(ResolverConfig())
        result = fit_evaluate(resolver, dataset, training_seed=0)
        assert result.blocks[0].predicted.n_items() == 2

    def test_single_person_block_scores_well(self, fit_evaluate):
        dataset, block = tiny_block(n_pages=10, n_persons=1)
        resolver = EntityResolver(ResolverConfig())
        result = fit_evaluate(resolver, dataset, training_seed=0)
        # All pairs are positive; the resolver should find one cluster.
        assert result.blocks[0].report.recall > 0.5


class TestDegenerateInputs:
    def test_pages_with_identical_text(self):
        pages = [
            WebPage(doc_id=f"x/{i}", query_name="Jane Roe",
                    url="http://a.org/x", title="t",
                    text="same words everywhere on this page",
                    person_id="p0")
            for i in range(4)
        ]
        block = NameCollection(query_name="Jane Roe", pages=pages)
        pipeline = ExtractionPipeline(first_names=["Jane"],
                                      known_surnames=["Roe"])
        features = pipeline.extract_block(block)
        graphs = batched_similarity_graphs(block, features,
                                           default_functions())
        # Identical pages: similarity 1.0 under content measures.
        assert all(value == pytest.approx(1.0)
                   for value in graphs["F8"].values())

    def test_resolver_on_identical_pages(self, fit_evaluate):
        pages = [
            WebPage(doc_id=f"x/{i}", query_name="Jane Roe",
                    url="http://a.org/x", title="t",
                    text="Jane Roe writes about chemistry and chemistry",
                    person_id="p0")
            for i in range(4)
        ]
        block = NameCollection(query_name="Jane Roe", pages=pages)
        pipeline = ExtractionPipeline(first_names=["Jane"],
                                      known_surnames=["Roe"])
        resolver = EntityResolver(ResolverConfig())
        result = fit_evaluate(resolver, block, training_seed=0,
                              pipeline=pipeline)
        assert len(result.predicted) == 1

    def test_training_sample_with_single_pair(self, fit_evaluate):
        dataset, block = tiny_block(n_pages=2, n_persons=2)
        resolver = EntityResolver(ResolverConfig(training_fraction=0.01))
        result = fit_evaluate(resolver, dataset, training_seed=0)
        assert result.blocks  # must not crash on a one-pair sample

    def test_all_criteria_on_degenerate_training(self):
        """Criteria must fit even when every training value is identical."""
        from repro.core.decisions import build_criteria
        data = [(0.5, True)] * 5
        for criterion in build_criteria(("threshold", "equal_width", "kmeans")):
            fitted = criterion.fit(data)
            assert fitted.decide(0.5) in (True, False)
            assert 0.0 <= fitted.link_probability(0.5) <= 1.0


class TestDegenerateBlocks:
    """Blocks of 0, 1 and 2 pages with an empty training sample: empty
    pair layouts, no labels and no edges reach every combiner, clusterer
    and baseline, which must still return a partition of the block."""

    #: Every baseline, built from the block's features.
    BASELINES = {
        "trained_best_function": lambda _: TrainedBestFunctionBaseline(),
        "oracle_best_function": lambda _: OracleBestFunctionBaseline(),
        "majority_vote": lambda _: MajorityVoteBaseline(),
        "weighted_vote": lambda _: WeightedVoteBaseline(),
        "dynamic_selection": lambda _: DynamicSelectionBaseline(),
        "clustering_selection": lambda _: ClusteringSelectionBaseline(),
        "agglomerative": lambda _: AgglomerativeBaseline(),
        "swoosh": SwooshBaseline,
    }

    @pytest.fixture(params=["python", "numpy"])
    def backend(self, request):
        if request.param == "numpy":
            pytest.importorskip("numpy")
        return request.param

    def block_and_graphs(self, n_pages, backend):
        pages = [
            WebPage(doc_id=f"x/{i}", query_name="Jane Roe",
                    url=f"http://a.org/{i}", title="t",
                    text=f"Jane Roe page {i} about chemistry",
                    person_id="p0")
            for i in range(n_pages)
        ]
        block = NameCollection(query_name="Jane Roe", pages=pages)
        pipeline = ExtractionPipeline(first_names=["Jane"],
                                      known_surnames=["Roe"])
        features = pipeline.extract_block(block)
        graphs = batched_similarity_graphs(block, features,
                                           default_functions(),
                                           backend=backend)
        return block, features, graphs

    @pytest.mark.parametrize("n_pages", [0, 1, 2])
    @pytest.mark.parametrize("combiner", COMBINERS.names())
    @pytest.mark.parametrize("clusterer", CLUSTERERS.names())
    def test_every_combiner_and_clusterer(self, n_pages, combiner,
                                          clusterer, backend):
        block, _, graphs = self.block_and_graphs(n_pages, backend)
        training = TrainingSample.from_pairs([])
        resolver = EntityResolver(ResolverConfig(backend=backend))
        combine = build_combiner(combiner)
        fitted = combine.combine(resolver.build_layers(graphs, training),
                                 training)
        applied = combine.apply(resolver.build_layers(graphs, training),
                                combine.fit_params(fitted))
        for result in (fitted, applied):
            clusters = cluster_combination(clusterer, result)
            assert is_partition([set(c) for c in clusters],
                                block.page_ids())

    @pytest.mark.parametrize("n_pages", [0, 1, 2])
    @pytest.mark.parametrize("baseline", sorted(BASELINES))
    def test_every_baseline(self, n_pages, baseline, backend):
        block, features, graphs = self.block_and_graphs(n_pages, backend)
        built = self.BASELINES[baseline](features)
        assert built.name == baseline
        clustering = built.resolve_block(block, graphs,
                                         TrainingSample.from_pairs([]))
        assert is_partition([set(c) for c in clustering], block.page_ids())


class TestTrainingSampleEdge:
    def test_full_fraction_uses_everything(self, fit_evaluate):
        dataset, block = tiny_block(n_pages=6, n_persons=2)
        resolver = EntityResolver(ResolverConfig(training_fraction=1.0))
        result = fit_evaluate(resolver, dataset, training_seed=0)
        # With the full sample the resolver sees perfect supervision and
        # must do no worse than random on this tiny block.
        assert result.blocks[0].report.fp > 0.3

    def test_labels_propagate_correctly(self):
        dataset, block = tiny_block(n_pages=8, n_persons=2)
        training = TrainingSample.from_pairs(
            [(pair, label) for pair, label in
             __import__("repro.ml.sampling", fromlist=["all_labeled_pairs"])
             .all_labeled_pairs(block)])
        truth = block.ground_truth()
        for (left, right), label in training.pairs:
            assert label == (truth[left] == truth[right])


#: What ``surrogateescape`` decoding leaves of undecodable bytes (lone
#: surrogates), plus NUL and control characters.
DIRTY = "\udcff\udc80\x00\x01\x1b\x7f"


def dirty(page: WebPage) -> WebPage:
    """``page`` with the characters of :data:`DIRTY` in title and text."""
    return replace(page, title=f"\udcff{page.title}\x00",
                   text=DIRTY.join(page.text.split(" ", 4)) + "\udc80\x1b")


def cleaned(page: WebPage) -> WebPage:
    """``page`` with each character of :data:`DIRTY` read as a space."""
    spaces = str.maketrans(dict.fromkeys(DIRTY, " "))
    return replace(page, title=page.title.translate(spaces),
                   text=page.text.translate(spaces))


class TestDirtyPageText:
    """Page text that is not clean UTF-8 reads as if each such character
    were a space, serves, and survives a save and load."""

    @pytest.fixture(scope="class")
    def dataset(self):
        dataset, _ = tiny_block(n_pages=8, n_persons=2)
        return dataset

    @pytest.fixture(scope="class")
    def tiny_pipeline(self, dataset):
        return EntityResolver(ResolverConfig()).pipeline_for(dataset)

    def test_extracts_as_spaces(self, dataset, tiny_pipeline):
        block = dataset.by_name("Max Tiny")
        dirty_block = NameCollection(block.query_name,
                                     pages=[dirty(page) for page in block])
        clean_block = NameCollection(
            block.query_name, pages=[cleaned(page) for page in dirty_block])
        assert dirty_block.pages[0].text != clean_block.pages[0].text
        got = tiny_pipeline.extract_block(dirty_block)
        expected = tiny_pipeline.extract_block(clean_block)
        assert got == expected
        assert [list(page.tfidf.items()) for page in got.values()] == [
            list(page.tfidf.items()) for page in expected.values()]

    def test_served_page_resolves_and_replays(self, dataset,
                                               tiny_pipeline):
        from repro.serving import ServingEngine, verify_serial_equivalence

        model = EntityResolver(ResolverConfig()).fit(
            dataset, training_seed=0, pipeline=tiny_pipeline)
        pages = list(dataset.by_name("Max Tiny").pages)
        assignments = []
        for page in (dirty(pages[-1]), cleaned(dirty(pages[-1]))):
            engine = ServingEngine(model, pipeline=tiny_pipeline,
                                   record_journal=True)
            engine.resolve(pages[:-1])
            assignments.append(engine.resolve(page))
            report = verify_serial_equivalence(engine)
            assert report["identical"], report["diffs"][:5]
        assert assignments[0] == assignments[1]

    @pytest.mark.parametrize("suffix", [".json", ".jsonl"])
    def test_round_trips_through_the_loaders(self, dataset, tmp_path,
                                             suffix):
        from repro.corpus.documents import DocumentCollection
        from repro.corpus.loaders import (
            load_collection,
            save_blocks_jsonl,
            save_collection,
        )

        collection = DocumentCollection(
            name="dirty", metadata=dataset.metadata, collections=[
                NameCollection(block.query_name,
                               pages=[dirty(page) for page in block])
                for block in dataset])
        path = tmp_path / f"dirty{suffix}"
        if suffix == ".json":
            save_collection(collection, path)
        else:
            save_blocks_jsonl(collection, path, name="dirty",
                              metadata=dataset.metadata)
        loaded = load_collection(path)
        assert [block.pages for block in loaded] == [
            block.pages for block in collection]
