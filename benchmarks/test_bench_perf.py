"""PERF — micro-benchmarks of the pipeline's hot paths.

Unlike the table/figure benches (single-shot experiment regeneration),
these are genuine repeated-measurement benchmarks: similarity-graph
construction (the quadratic step), feature extraction, one resolver pass,
and the blocking schemes.
"""

import pytest

from repro.blocking import QueryNameBlocker, SortedNeighborhoodBlocker, TokenBlocker
from repro.core.config import ResolverConfig
from repro.core.resolver import EntityResolver
from repro.runtime.batch import batched_similarity_graphs
from repro.similarity.functions import default_functions


@pytest.fixture(scope="module")
def one_block(www_context):
    name = www_context.collection.query_names()[0]
    return www_context.collection.by_name(name)


@pytest.fixture(scope="module")
def one_block_features(www_context, one_block):
    return www_context.features_by_name[one_block.query_name]


def test_perf_similarity_graphs(benchmark, one_block, one_block_features):
    """Quadratic similarity computation for one block, all ten functions."""
    functions = default_functions()
    graphs = benchmark(batched_similarity_graphs, one_block,
                       one_block_features, functions)
    assert graphs["F8"].is_complete()


def test_perf_extraction(benchmark, www_context, one_block):
    """Feature extraction (tokenize + NER + concepts + TF-IDF) per block."""
    resolver = EntityResolver(ResolverConfig())
    pipeline = resolver.pipeline_for(www_context.collection)
    features = benchmark(pipeline.extract_block, one_block)
    assert len(features) == len(one_block)


def test_perf_resolver_pass(benchmark, www_context, one_block):
    """One full Algorithm 1 pass given precomputed graphs."""
    resolver = EntityResolver(ResolverConfig())
    graphs = www_context.graphs_by_name[one_block.query_name]

    def fit_evaluate():
        model = resolver.fit(one_block, training_seed=0, graphs=graphs)
        return model.evaluate(one_block, graphs=graphs)

    result = benchmark(fit_evaluate)
    assert result.report.fp > 0.0


@pytest.mark.parametrize("blocker", [
    QueryNameBlocker(),
    TokenBlocker(),
    SortedNeighborhoodBlocker(window=10),
], ids=["query-name", "token", "sorted-neighborhood"])
def test_perf_blocking(benchmark, www_context, blocker):
    """Blocking throughput over the whole dataset."""
    pages = list(www_context.collection.all_pages())
    result = benchmark(blocker.block, pages)
    assert result.n_candidates() > 0
