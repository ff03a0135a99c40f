"""Collection fit/predict must be bit-identical to the per-block loops.

Each pass blocks the collection and fans one task per block out; that
structure must never change *values*.  These tests replicate the plain
per-block loops inline (the same way the runtime benchmark keeps a
seed-path replica) and compare every observable output — fitted state,
predictions, combination probabilities and metric reports — for serial
and ``--workers 2`` execution at several training seeds.  A checked-in
pin then freezes the passes under every registered blocker, and three
contracts of the passes close the file.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.core.config import ResolverConfig
from repro.core.model import ResolverModel
from repro.core.resolver import EntityResolver
from repro.corpus.documents import DocumentCollection
from repro.experiments.runner import ExperimentContext
from repro.runtime.executor import ProcessPoolBlockExecutor, SerialExecutor

SEEDS = [0, 1]


@pytest.fixture(scope="module")
def context(small_dataset):
    return ExperimentContext.prepare(small_dataset)


@pytest.fixture(scope="module")
def parallel():
    # Oversubscribed so a genuine pool runs even on one-core hosts.
    return ProcessPoolBlockExecutor(workers=2, oversubscribe=True)


def legacy_fit(resolver: EntityResolver, context,
               training_seed: int) -> ResolverModel:
    """The pre-pipeline serial fit loop, replicated verbatim."""
    blocks = {}
    for block in context.collection:
        blocks[block.query_name] = resolver.fit_block(
            block, context.graphs_by_name[block.query_name], training_seed)
    return ResolverModel(config=resolver.config, blocks=blocks)


def legacy_evaluate(model: ResolverModel, context) -> list:
    """The pre-pipeline serial evaluate loop, replicated verbatim."""
    results = []
    for block in context.collection:
        results.append(model.evaluate_block(
            block, graphs=context.graphs_by_name[block.query_name]))
    model.release_fit_caches()
    return results


class TestFitParity:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_staged_serial_fit_matches_legacy(self, context, seed):
        staged = EntityResolver(ResolverConfig()).fit(
            context.collection, training_seed=seed,
            graphs_by_name=context.graphs_by_name)
        legacy = legacy_fit(EntityResolver(ResolverConfig()), context, seed)
        assert list(staged.blocks) == list(legacy.blocks)
        for name in staged.blocks:
            # The serialized form covers every learned number.
            assert (staged.blocks[name].to_dict()
                    == legacy.blocks[name].to_dict()), name

    @pytest.mark.parametrize("seed", SEEDS)
    def test_staged_workers2_fit_matches_legacy(self, context, parallel,
                                                seed):
        staged = EntityResolver(ResolverConfig()).fit(
            context.collection, training_seed=seed,
            graphs_by_name=context.graphs_by_name, executor=parallel)
        legacy = legacy_fit(EntityResolver(ResolverConfig()), context, seed)
        for name in staged.blocks:
            assert (staged.blocks[name].to_dict()
                    == legacy.blocks[name].to_dict()), name


class TestPredictParity:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_staged_evaluate_matches_legacy(self, context, seed):
        resolver = EntityResolver(ResolverConfig())
        staged_model = resolver.fit(context.collection, training_seed=seed,
                                    graphs_by_name=context.graphs_by_name)
        staged = staged_model.evaluate_collection(
            context.collection, graphs_by_name=context.graphs_by_name)

        legacy_model = legacy_fit(EntityResolver(ResolverConfig()), context,
                                  seed)
        legacy = legacy_evaluate(legacy_model, context)

        assert [b.query_name for b in staged.blocks] == \
            [b.query_name for b in legacy]
        for left, right in zip(staged.blocks, legacy):
            assert left.predicted == right.predicted
            assert left.report == right.report
            assert left.chosen_layer == right.chosen_layer
            assert left.layer_accuracies == right.layer_accuracies
            assert (left.combination.probabilities.weights
                    == right.combination.probabilities.weights)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_staged_workers2_evaluate_matches_legacy(self, context, parallel,
                                                     seed):
        resolver = EntityResolver(ResolverConfig())
        staged_model = resolver.fit(context.collection, training_seed=seed,
                                    graphs_by_name=context.graphs_by_name,
                                    executor=parallel)
        staged = staged_model.evaluate_collection(
            context.collection, graphs_by_name=context.graphs_by_name,
            executor=parallel)

        legacy_model = legacy_fit(EntityResolver(ResolverConfig()), context,
                                  seed)
        legacy = legacy_evaluate(legacy_model, context)
        for left, right in zip(staged.blocks, legacy):
            assert left.predicted == right.predicted
            assert left.report == right.report
            assert (left.combination.probabilities.weights
                    == right.combination.probabilities.weights)

    def test_staged_predict_without_precomputed_graphs(self, small_dataset):
        """End-to-end (extraction inside the plan) matches the graph-fed
        path — the similarity stage computes what the context would."""
        resolver = EntityResolver(ResolverConfig())
        model = resolver.fit(small_dataset, training_seed=0)
        unlabeled = small_dataset.without_labels()
        from_scratch = model.predict_collection(unlabeled)

        context = ExperimentContext.prepare(small_dataset)
        fed_model = EntityResolver(ResolverConfig()).fit(
            small_dataset, training_seed=0,
            graphs_by_name=context.graphs_by_name)
        fed = fed_model.predict_collection(
            unlabeled, graphs_by_name=context.graphs_by_name)
        for left, right in zip(from_scratch.blocks, fed.blocks):
            assert left.predicted == right.predicted
            assert left.chosen_layer == right.chosen_layer


# -- the collection passes, pinned ---------------------------------------
#
# ``tests/data/golden/passes_golden.json`` freezes, per registered
# blocker, what a fit + evaluate of the small dataset produces: the
# sha256 of the saved model bytes, the sorted partitions, and both
# passes' block and pair counters.  Serial and two-worker runs must
# both match the one pin.  Regenerate after an *intentional* change with::
#
#     PYTHONPATH=src python tests/pipeline/test_parity.py

PASSES_PIN = (Path(__file__).resolve().parents[1] / "data" / "golden"
              / "passes_golden.json")

BLOCKERS = ("query_name", "token", "sorted_neighborhood")

#: the counters each pass's RunStats must reproduce.
PASS_COUNTERS = ("n_blocks", "pairs_scored")


def pin_dataset():
    """The ``small_dataset`` fixture's corpus, rebuilt for regeneration."""
    from repro.corpus.datasets import www05_like

    return www05_like(seed=11, pages_per_name=30,
                      names=["William Cohen", "Adam Cheyer", "Lynn Voss"])


def build_pass_pin(dataset, blocker: str, executor, model_path) -> dict:
    """Fit then evaluate ``dataset`` under ``blocker``; the pinned view."""
    model = EntityResolver(ResolverConfig(blocker=blocker)).fit(
        dataset, training_seed=0, executor=executor)
    model.save(model_path)
    resolution = model.evaluate_collection(dataset, executor=executor)
    return {
        "model_sha256": hashlib.sha256(
            Path(model_path).read_bytes()).hexdigest(),
        "partitions": {
            block.query_name: sorted(sorted(cluster)
                                     for cluster in block.predicted)
            for block in resolution.blocks},
        "fit": {name: getattr(model.fit_stats, name)
                for name in PASS_COUNTERS},
        "evaluate": {name: getattr(resolution.stats, name)
                     for name in PASS_COUNTERS},
    }


@pytest.fixture(scope="module")
def passes_pin():
    assert PASSES_PIN.exists(), (
        f"missing pinned fixture {PASSES_PIN}; run "
        "PYTHONPATH=src python tests/pipeline/test_parity.py")
    return json.loads(PASSES_PIN.read_text())


@pytest.mark.parametrize("schedule", ["serial", "workers2"])
@pytest.mark.parametrize("blocker", BLOCKERS)
def test_collection_passes_match_pin(small_dataset, passes_pin, parallel,
                                     tmp_path, blocker, schedule):
    executor = parallel if schedule == "workers2" else SerialExecutor()
    rebuilt = build_pass_pin(small_dataset, blocker, executor,
                             tmp_path / "model.json")
    assert rebuilt == passes_pin[blocker]


class SpyExecutor(SerialExecutor):
    """A serial executor that counts its fan-outs and closes."""

    def __init__(self):
        super().__init__()
        self.runs = 0
        self.closes = 0

    def run(self, task, payloads, weights=None):
        self.runs += 1
        return super().run(task, payloads, weights=weights)

    def close(self):
        self.closes += 1


class TestPassContracts:
    def test_unfitted_name_raises_before_any_task(self, small_dataset):
        fitted_on = DocumentCollection(
            name="subset", collections=list(small_dataset)[:2],
            metadata=dict(small_dataset.metadata))
        model = EntityResolver(ResolverConfig()).fit(fitted_on,
                                                     training_seed=0)
        spy = SpyExecutor()
        with pytest.raises(KeyError, match="no fitted state"):
            model.predict_collection(small_dataset.without_labels(),
                                     executor=spy)
        assert spy.runs == 0

    def test_covering_graphs_never_resolve_a_pipeline(self, small_dataset,
                                                      context):
        bare = DocumentCollection(name="bare",
                                  collections=list(small_dataset))
        assert not bare.metadata
        model = EntityResolver(ResolverConfig()).fit(
            bare, training_seed=0, graphs_by_name=context.graphs_by_name)
        assert model.pipeline is None
        resolution = model.evaluate_collection(
            bare, graphs_by_name=context.graphs_by_name)
        assert [block.query_name for block in resolution.blocks] == \
            bare.query_names()

    def test_callers_executor_stays_open(self, small_dataset):
        spy = SpyExecutor()
        model = EntityResolver(ResolverConfig()).fit(
            small_dataset, training_seed=0, executor=spy)
        model.evaluate_collection(small_dataset, executor=spy)
        assert spy.runs == 2
        assert spy.closes == 0


if __name__ == "__main__":
    import tempfile

    dataset = pin_dataset()
    with tempfile.TemporaryDirectory() as scratch:
        payload = {blocker: build_pass_pin(dataset, blocker,
                                           SerialExecutor(),
                                           Path(scratch) / "model.json")
                   for blocker in BLOCKERS}
    PASSES_PIN.write_text(json.dumps(payload, indent=1, sort_keys=True)
                          + "\n")
    print(f"wrote {PASSES_PIN}")
