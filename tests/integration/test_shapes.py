"""Fast shape-claim smoke tests (scaled-down versions of the benchmarks).

The benchmark suite asserts the paper's shape claims at full scale; these
integration tests check the load-bearing ones on a small dataset so a
plain ``pytest tests/`` run already guards the reproduction's substance.
"""

import pytest

from repro.core.config import table2_config
from repro.corpus.datasets import www05_like
from repro.experiments.figures import figure1_series
from repro.experiments.runner import ExperimentContext, run_config


@pytest.fixture(scope="module")
def context():
    dataset = www05_like(seed=5, pages_per_name=40,
                         names=["William Cohen", "Andrew Mccallum",
                                "Tom Mitchell", "Lynn Voss",
                                "Adam Cheyer", "Fernando Pereira"])
    return ExperimentContext.prepare(dataset)


@pytest.fixture(scope="module")
def seeds(context):
    return context.seeds(n_runs=2, base_seed=0)


class TestShapeClaims:
    def test_s1_region_accuracy_varies(self, context):
        points = figure1_series(context, function_name="F8", seed=0)
        accuracies = [point.accuracy for point in points]
        assert max(accuracies) - min(accuracies) > 0.2

    def test_s3_criteria_beat_thresholds(self, context, seeds):
        i10 = run_config(context, table2_config("I10"), seeds).mean().fp
        c10 = run_config(context, table2_config("C10"), seeds).mean().fp
        assert c10 > i10 - 0.005

    def test_s3_more_functions_help(self, context, seeds):
        c4 = run_config(context, table2_config("C4"), seeds).mean().fp
        c10 = run_config(context, table2_config("C10"), seeds).mean().fp
        assert c10 >= c4 - 0.03

    def test_s4_best_graph_vs_weighted(self, context, seeds):
        c10 = run_config(context, table2_config("C10"), seeds).mean().fp
        weighted = run_config(context, table2_config("W"), seeds).mean().fp
        assert c10 >= weighted - 0.02

    def test_s5_winning_layer_varies(self, context, seeds, fit_evaluate):
        from repro.core.resolver import EntityResolver
        resolver = EntityResolver(table2_config("C10"))
        chosen = set()
        for block in context.collection:
            resolution = fit_evaluate(
                resolver, block, training_seed=seeds[0],
                graphs=context.graphs_by_name[block.query_name])
            chosen.add(resolution.chosen_layer)
        assert len(chosen) >= 2
