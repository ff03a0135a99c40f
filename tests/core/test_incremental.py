"""Incremental resolver tests."""

import os
import subprocess
import sys

import pytest

import repro
from repro.core import EntityResolver, ResolverConfig
from repro.core.incremental import IncrementalResolver
from repro.corpus.documents import NameCollection
from repro.graph.validation import is_partition


@pytest.fixture(scope="module")
def split_block(small_block, block_features):
    """The fixture block split into a base part and held-out pages."""
    pages = list(small_block.pages)
    base = NameCollection(query_name=small_block.query_name,
                          pages=pages[:-6])
    held_out = pages[-6:]
    base_features = {page.doc_id: block_features[page.doc_id]
                     for page in base.pages}
    held_features = [block_features[page.doc_id] for page in held_out]
    return base, base_features, held_out, held_features


class TestFit:
    def test_fit_returns_partition(self, split_block):
        base, base_features, _, _ = split_block
        resolver = IncrementalResolver(ResolverConfig())
        predicted = resolver.fit(base, base_features, training_seed=0)
        assert is_partition([set(c) for c in predicted], base.page_ids())
        assert resolver.is_fitted

    def test_fit_matches_batch_resolver(self, split_block, fit_evaluate):
        base, base_features, _, _ = split_block
        incremental = IncrementalResolver(ResolverConfig())
        predicted = incremental.fit(base, base_features, training_seed=0)
        batch = fit_evaluate(EntityResolver(ResolverConfig()), base,
                             training_seed=0, features=base_features)
        assert predicted == batch.predicted

    def test_unsupported_combiner(self):
        with pytest.raises(ValueError, match="combiner"):
            IncrementalResolver(ResolverConfig(combiner="majority"))

    def test_from_model_matches_fit(self, split_block):
        """Adopting a fitted model equals fitting in-place."""
        base, base_features, _, held_features = split_block
        fitted_inplace = IncrementalResolver(ResolverConfig())
        fitted_inplace.fit(base, base_features, training_seed=0)

        model = EntityResolver(ResolverConfig()).fit(
            base, training_seed=0, features=base_features)
        adopted = IncrementalResolver.from_model(model, base, base_features)

        assert adopted.clusters() == fitted_inplace.clusters()
        adopted.add_pages(held_features)
        fitted_inplace.add_pages(held_features)
        assert adopted.clusters() == fitted_inplace.clusters()

    def test_from_loaded_model(self, split_block, tmp_path):
        """A saved model serves the incremental path without labels."""
        from repro.core.model import ResolverModel

        base, base_features, _, held_features = split_block
        model = EntityResolver(ResolverConfig()).fit(
            base, training_seed=0, features=base_features)
        path = tmp_path / "model.json"
        model.save(path)

        served = IncrementalResolver.from_model(
            ResolverModel.load(path), base, base_features)
        assert served.is_fitted
        assignments = served.add_pages(held_features)
        assert len(assignments) == len(held_features)

    def test_stored_winner_gone_falls_back_like_the_combiner(
            self, split_block):
        """from_model, from_fitted and batch predict agree on the layer
        that decides once the stored winner left ``fitted.layers``."""
        base, base_features, _, held_features = split_block
        model = EntityResolver(ResolverConfig()).fit(
            base, training_seed=0, features=base_features)
        fitted = model.blocks[base.query_name]
        winner = fitted.combiner_params["chosen_layer"]
        fitted.layers = [layer for layer in fitted.layers
                         if layer.label != winner]
        runner_up = max(fitted.layers,
                        key=lambda layer: layer.graph_accuracy)

        prediction = model.predict_block(base, features=base_features)
        assert prediction.chosen_layer == runner_up.label != winner

        adopted = IncrementalResolver.from_model(model, base, base_features)
        cold = IncrementalResolver.from_fitted(
            model.config, fitted, base_features, prediction.predicted)
        for resolver in (adopted, cold):
            assert resolver.scoring_function_names() == [
                runner_up.function_name]
            assert resolver.clusters() == prediction.predicted
        assert ([a.cluster_index for a in adopted.add_pages(held_features)]
                == [a.cluster_index for a in cold.add_pages(held_features)])

    def test_use_before_fit(self):
        resolver = IncrementalResolver()
        with pytest.raises(RuntimeError, match="before fit"):
            resolver.clusters()


class TestAddPage:
    def build(self, split_block, combiner="best_graph"):
        base, base_features, held_out, held_features = split_block
        resolver = IncrementalResolver(ResolverConfig(combiner=combiner))
        resolver.fit(base, base_features, training_seed=0)
        return resolver, base, held_out, held_features

    def test_assignments_keep_partition(self, split_block):
        resolver, base, held_out, held_features = self.build(split_block)
        assignments = resolver.add_pages(held_features)
        assert len(assignments) == len(held_out)
        all_ids = base.page_ids() + [page.doc_id for page in held_out]
        assert is_partition([set(c) for c in resolver.clusters()], all_ids)

    def test_duplicate_page_rejected(self, split_block):
        resolver, _, _, held_features = self.build(split_block)
        resolver.add_page(held_features[0])
        with pytest.raises(ValueError, match="already resolved"):
            resolver.add_page(held_features[0])

    def test_assignment_metadata(self, split_block):
        resolver, _, _, held_features = self.build(split_block)
        assignment = resolver.add_page(held_features[0])
        assert assignment.doc_id == held_features[0].doc_id
        assert 0.0 <= assignment.link_probability <= 1.0
        cluster = resolver.clusters().cluster_of(assignment.doc_id)
        if assignment.created_new_cluster:
            assert cluster == {assignment.doc_id}
        else:
            assert len(cluster) > 1

    def test_weighted_average_mode(self, split_block):
        resolver, base, held_out, held_features = self.build(
            split_block, combiner="weighted_average")
        resolver.add_pages(held_features)
        all_ids = base.page_ids() + [page.doc_id for page in held_out]
        assert is_partition([set(c) for c in resolver.clusters()], all_ids)

    def test_incremental_quality(self, split_block):
        """Most held-out pages should land with their true person."""
        resolver, base, held_out, held_features = self.build(split_block)
        truth = {page.doc_id: page.person_id for page in base.pages}
        truth.update({page.doc_id: page.person_id for page in held_out})

        resolver.add_pages(held_features)
        clusters = resolver.clusters()

        correct = 0
        for page in held_out:
            cluster = clusters.cluster_of(page.doc_id)
            mates = [doc for doc in cluster if doc != page.doc_id]
            if not mates:
                # Singleton: correct iff the page's person is new to the base.
                base_persons = {p.person_id for p in base.pages}
                correct += page.person_id not in base_persons
            else:
                majority_same = sum(
                    1 for doc in mates if truth[doc] == page.person_id)
                correct += majority_same * 2 > len(mates)
        assert correct >= len(held_out) // 2

    def test_deterministic(self, split_block):
        base, base_features, _, held_features = split_block
        results = []
        for _ in range(2):
            resolver = IncrementalResolver(ResolverConfig())
            resolver.fit(base, base_features, training_seed=0)
            resolver.add_pages(held_features)
            results.append(resolver.clusters())
        assert results[0] == results[1]


#: Adds 40 pages of one name, one at a time, to an empty best-graph
#: index and prints every assignment.  The link probabilities repeat a
#: few region accuracies whose sums are not exact in binary, so a float
#: fold over a cluster's members in set-iteration (string-hash) order
#: changes last digits between processes.
_STREAM_SCRIPT = """
from repro.core.config import ResolverConfig
from repro.core.incremental import IncrementalResolver
from repro.core.resolver import EntityResolver
from repro.corpus.datasets import www05_like
collection = www05_like(seed=3, pages_per_name=40, names=["William Cohen"])
block = collection.collections[0]
resolver = EntityResolver(ResolverConfig())
pipeline = resolver.pipeline_for(collection)
features = pipeline.extract_block(block)
model = resolver.fit(collection, training_seed=0, pipeline=pipeline)
incremental = IncrementalResolver.from_fitted(
    model.config, model.blocks[block.query_name])
for page in block.pages:
    print(repr(incremental.add_page(features[page.doc_id])))
"""


def test_assignments_do_not_depend_on_the_hash_seed():
    """Four processes with different string-hash orders print the same
    ``repr`` of every assignment: a cluster's mean link probability is
    exactly rounded, whatever order its members are summed in."""
    source_root = os.path.dirname(os.path.dirname(repro.__file__))
    printed = set()
    for seed in ("1", "2", "3", "4"):
        env = {**os.environ, "PYTHONHASHSEED": seed,
               "PYTHONPATH": source_root}
        printed.add(subprocess.run(
            [sys.executable, "-c", _STREAM_SCRIPT], env=env, check=True,
            capture_output=True, text=True, timeout=120).stdout)
    assert len(printed) == 1, printed
