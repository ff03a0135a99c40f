"""Edge cases and failure injection across the stack."""

import pytest

from repro.core import EntityResolver, ResolverConfig
from repro.core.labels import TrainingSample
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
