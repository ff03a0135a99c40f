"""Serial and process-pool execution must be bit-identical.

The engine's core guarantee: scheduling is an implementation detail —
fitting, predicting and evaluating through the process pool produces
exactly the serial results at fixed seeds.  Checked across training seeds
(the protocol's randomness) on every surface a caller can observe:
fitted state, predictions, combination probabilities and metric reports.
"""

from __future__ import annotations

import pytest

from repro.core.config import ResolverConfig
from repro.core.resolver import EntityResolver
from repro.experiments.runner import ExperimentContext, run_config
from repro.runtime.executor import (
    ProcessPoolBlockExecutor,
    executor_for_workers,
)

SEEDS = [0, 1, 2]


@pytest.fixture(scope="module")
def context(small_dataset):
    return ExperimentContext.prepare(small_dataset)


@pytest.fixture(scope="module")
def parallel():
    # Oversubscribed so a genuine multi-process pool runs even on hosts
    # with a single available core — this suite exists to prove the pool
    # path is bit-identical, not to be fast.
    return ProcessPoolBlockExecutor(workers=2, oversubscribe=True)


class TestFitDeterminism:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_fitted_state_identical(self, context, parallel, seed):
        resolver = EntityResolver(ResolverConfig())
        serial_model = resolver.fit(context.collection, training_seed=seed,
                                    graphs_by_name=context.graphs_by_name)
        parallel_model = resolver.fit(context.collection, training_seed=seed,
                                      graphs_by_name=context.graphs_by_name,
                                      executor=parallel)
        # The serialized form covers every learned number: thresholds,
        # region profiles, accuracies, combiner parameters.
        for name in serial_model.blocks:
            assert (serial_model.blocks[name].to_dict()
                    == parallel_model.blocks[name].to_dict()), name


class TestPredictDeterminism:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_predictions_bit_identical(self, context, parallel, seed):
        resolver = EntityResolver(ResolverConfig())
        model = resolver.fit(context.collection, training_seed=seed,
                             graphs_by_name=context.graphs_by_name)
        unlabeled = context.collection.without_labels()

        serial = model.predict_collection(
            unlabeled, graphs_by_name=context.graphs_by_name)
        parallel_run = model.predict_collection(
            unlabeled, graphs_by_name=context.graphs_by_name,
            executor=parallel)

        assert [b.query_name for b in serial.blocks] == \
            [b.query_name for b in parallel_run.blocks]
        for left, right in zip(serial.blocks, parallel_run.blocks):
            assert left.predicted == right.predicted
            assert left.chosen_layer == right.chosen_layer
            assert left.layer_accuracies == right.layer_accuracies
            assert (left.combination.probabilities.weights
                    == right.combination.probabilities.weights)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_evaluate_metrics_bit_identical(self, context, parallel, seed):
        resolver = EntityResolver(ResolverConfig())
        model = resolver.fit(context.collection, training_seed=seed,
                             graphs_by_name=context.graphs_by_name)

        serial = model.evaluate_collection(
            context.collection, graphs_by_name=context.graphs_by_name)
        parallel_run = model.evaluate_collection(
            context.collection, graphs_by_name=context.graphs_by_name,
            executor=parallel)

        for left, right in zip(serial.blocks, parallel_run.blocks):
            assert left.report == right.report
            assert left.predicted == right.predicted
        assert serial.mean_report() == parallel_run.mean_report()


class TestEndToEndDeterminism:
    def test_parallel_fit_then_serial_predict_matches_serial_fit(
            self, context, parallel):
        """Cross modes: a pool-fitted model serves like a serially fitted one."""
        resolver = EntityResolver(ResolverConfig())
        serial_model = resolver.fit(context.collection, training_seed=0,
                                    graphs_by_name=context.graphs_by_name)
        parallel_model = resolver.fit(context.collection, training_seed=0,
                                      graphs_by_name=context.graphs_by_name,
                                      executor=parallel)
        serial_result = serial_model.evaluate_collection(
            context.collection, graphs_by_name=context.graphs_by_name)
        crossed_result = parallel_model.evaluate_collection(
            context.collection, graphs_by_name=context.graphs_by_name)
        for left, right in zip(serial_result.blocks, crossed_result.blocks):
            assert left.report == right.report

    def test_run_config_reports_identical_across_executors(self, context,
                                                           parallel):
        serial = run_config(context, ResolverConfig(), seeds=SEEDS)
        pooled = run_config(context, ResolverConfig(), seeds=SEEDS,
                            executor=parallel)
        assert serial.per_seed_reports == pooled.per_seed_reports
        assert pooled.stats is not None
        assert pooled.stats.executor == "process"

    def test_prepare_identical_across_executors(self, small_dataset, context,
                                                parallel):
        pooled = ExperimentContext.prepare(small_dataset, executor=parallel)
        for name, graphs in context.graphs_by_name.items():
            for function_name, graph in graphs.items():
                assert (pooled.graphs_by_name[name][function_name].weights
                        == graph.weights)
        assert pooled.stats.executor == "process"
        assert pooled.stats.pairs_scored == context.stats.pairs_scored


class TestOneBodyTwoSchedules:
    """A collection pass is one task body, run inline or in workers: the
    accounting must agree, not only the values."""

    @pytest.mark.parametrize("supplied", [False, True],
                             ids=["graphs-computed", "graphs-supplied"])
    def test_fit_and_evaluate_account_alike(self, context, pipeline,
                                            parallel, supplied):
        graphs = context.graphs_by_name if supplied else None
        resolver = EntityResolver(ResolverConfig(), pipeline=pipeline)
        accounts = []
        for executor in (executor_for_workers(1), parallel):
            model = resolver.fit(context.collection, training_seed=0,
                                 graphs_by_name=graphs, executor=executor)
            resolution = model.evaluate_collection(
                context.collection, graphs_by_name=graphs, executor=executor)
            accounts.append([
                (stats.pairs_scored, list(stats.per_block_seconds))
                for stats in (model.fit_stats, resolution.stats)])
        serial, pooled = accounts
        assert serial == pooled
        names = context.collection.query_names()
        assert [account[1] for account in serial] == [names, names]
        assert (serial[0][0] == 0) == supplied  # fit scores unless handed graphs


class TestPoolAccounting:
    def test_one_fork_wave_per_run(self, context):
        """Regression: fit + evaluate through one executor fork once."""
        with ProcessPoolBlockExecutor(workers=2,
                                      oversubscribe=True) as executor:
            resolver = EntityResolver(ResolverConfig())
            model = resolver.fit(context.collection, training_seed=0,
                                 graphs_by_name=context.graphs_by_name,
                                 executor=executor)
            resolution = model.evaluate_collection(
                context.collection, graphs_by_name=context.graphs_by_name,
                executor=executor)
            assert executor.fork_waves == 1
            # The stats records agree: the fit pass paid the fork wave,
            # the evaluate pass reused the pool.
            assert model.fit_stats.fork_waves == 1
            assert resolution.stats.fork_waves == 0

    def test_run_stats_carry_honest_worker_accounting(self, context,
                                                      parallel):
        resolver = EntityResolver(ResolverConfig())
        model = resolver.fit(context.collection, training_seed=0,
                             graphs_by_name=context.graphs_by_name,
                             executor=parallel)
        stats = model.fit_stats
        assert stats.requested_workers == 2
        assert stats.effective_workers == 2  # oversubscribed fixture
        assert stats.host_cores >= 1
        assert stats.available_cores >= 1
        assert stats.cpuset_limited == (
            stats.available_cores < stats.host_cores)
        payload = stats.to_dict()
        for key in ("requested_workers", "effective_workers",
                    "available_cores", "host_cores", "cpuset_limited",
                    "fork_waves"):
            assert key in payload

    def test_serial_stats_report_no_fork_waves(self, context):
        # An explicit serial executor: a config at its serial defaults
        # still fans out under an ambient REPRO_WORKERS (CI sets 2).
        resolver = EntityResolver(ResolverConfig())
        model = resolver.fit(context.collection, training_seed=0,
                             graphs_by_name=context.graphs_by_name,
                             executor=executor_for_workers(1))
        assert model.fit_stats.effective_workers == 1
        assert model.fit_stats.fork_waves == 0
