"""Experiment runner tests."""

import pytest

from repro.baselines import TrainedBestFunctionBaseline
from repro.core.config import ResolverConfig
from repro.core.resolver import EntityResolver
from repro.experiments.runner import (
    ExperimentContext,
    RunResult,
    run_baseline,
    run_config,
)
from repro.metrics.report import MetricReport


@pytest.fixture(scope="module")
def context(small_dataset):
    return ExperimentContext.prepare(small_dataset)


class TestExperimentContext:
    def test_prepares_all_blocks(self, context, small_dataset):
        assert set(context.graphs_by_name) == set(small_dataset.query_names())
        assert set(context.features_by_name) == set(small_dataset.query_names())

    def test_graphs_cover_all_functions(self, context):
        for graphs in context.graphs_by_name.values():
            assert set(graphs) == {f"F{i}" for i in range(1, 11)}

    def test_prepared_graphs_are_reused_by_passing_them(self, context,
                                                        small_dataset):
        """prepare → fit + evaluate over ``graphs_by_name``: the passes
        score no pair a second time."""
        assert context.stats.pairs_scored > 0
        graphs = context.graphs_by_name
        model = EntityResolver(ResolverConfig()).fit(
            small_dataset, training_seed=0, graphs_by_name=graphs)
        resolution = model.evaluate_collection(small_dataset,
                                               graphs_by_name=graphs)
        assert model.fit_stats.pairs_scored == 0
        assert resolution.stats.pairs_scored == 0
        assert resolution.stats.n_blocks == len(small_dataset)

    def test_seeds_protocol(self, context):
        seeds = context.seeds(n_runs=5, base_seed=0)
        assert len(seeds) == 5
        assert context.seeds(n_runs=5, base_seed=0) == seeds


class TestRunConfig:
    def test_result_shape(self, context):
        config = ResolverConfig(function_names=("F8",), criteria=("threshold",))
        result = run_config(context, config, seeds=[0, 1], label="f8")
        assert result.label == "f8"
        assert len(result.per_seed_reports) == 2
        assert set(result.names()) == set(context.collection.query_names())

    def test_mean_is_grand_mean(self, context):
        config = ResolverConfig(function_names=("F8",), criteria=("threshold",))
        result = run_config(context, config, seeds=[0, 1])
        manual = []
        for reports in result.per_seed_reports:
            values = [report.fp for report in reports.values()]
            manual.append(sum(values) / len(values))
        assert result.mean().fp == pytest.approx(sum(manual) / len(manual))

    def test_name_mean(self, context):
        config = ResolverConfig(function_names=("F8",), criteria=("threshold",))
        result = run_config(context, config, seeds=[0, 1])
        name = context.collection.query_names()[0]
        per_run = [reports[name].fp for reports in result.per_seed_reports]
        assert result.name_mean(name).fp == pytest.approx(
            sum(per_run) / len(per_run))

    def test_metric_shortcut(self, context):
        config = ResolverConfig(function_names=("F8",), criteria=("threshold",))
        result = run_config(context, config, seeds=[0])
        assert result.metric("fp") == result.mean().fp


class TestRunBaseline:
    def test_same_protocol_shape(self, context):
        result = run_baseline(context, TrainedBestFunctionBaseline(),
                              seeds=[0, 1])
        assert result.label == "trained_best_function"
        assert len(result.per_seed_reports) == 2
        for reports in result.per_seed_reports:
            for report in reports.values():
                assert isinstance(report, MetricReport)


class TestRunResult:
    def test_empty_names(self):
        assert RunResult(label="x").names() == []
