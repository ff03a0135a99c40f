"""Scale corpora streamed one block at a time: flat memory, steady quality.

The scale generator rebuilds any block in O(1) from ``(seed, name)``, so
a pass that generates, resolves and drops one block at a time keeps one
block resident whatever the corpus size.  These checks run two corpus
sizes nine times apart at a few pages per name: the generation peak and
a block's resolution peak must not grow with the corpus, and B-cubed F1
must hold up while the surname collision rate rises with size.
"""

from __future__ import annotations

import tracemalloc

from repro.core.config import ResolverConfig
from repro.core.model import ResolverModel
from repro.core.resolver import EntityResolver
from repro.corpus.datasets import scale_generator
from repro.extraction.pipeline import ExtractionPipeline
from repro.runtime.batch import batched_similarity_graphs
from repro.similarity.functions import default_functions

SEED = 13
SIZES = (6, 54)  # names per corpus; the larger is 9x the smaller


def resolve(generator, pipeline, name: str):
    """Generate one block, fit it on its own labels, and score it."""
    config = ResolverConfig()
    block = generator.generate_block(name, SEED)
    graphs = batched_similarity_graphs(block, pipeline.extract_block(block),
                                       default_functions())
    fitted = EntityResolver(config).fit_block(block, graphs, training_seed=0)
    return ResolverModel(config=config, blocks={}).evaluate_fitted(
        fitted, block, graphs=graphs)


def traced_peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_streaming_memory_does_not_grow_with_the_corpus():
    generation, resolution = [], []
    for n_names in SIZES:
        generator, names = scale_generator(n_names, seed=SEED,
                                           pages_per_name=8,
                                           collision_rate=0.3)
        pipeline = ExtractionPipeline.from_vocabulary(
            generator.vocabulary, query_names=names)
        generation.append(traced_peak(
            lambda: [None for _ in generator.iter_blocks(names, SEED)]))
        resolution.append(traced_peak(
            lambda: [resolve(generator, pipeline, name)
                     for name in names[:3]]))
    # An O(N) regression would grow ~9x; allocator noise stays far below.
    assert max(generation) <= 2.5 * min(generation), generation
    assert max(resolution) <= 2.5 * min(resolution), resolution


def test_quality_does_not_collapse_as_collisions_rise():
    means = []
    for n_names, collision_rate in ((6, 0.1), (18, 0.5)):
        generator, names = scale_generator(n_names, seed=SEED,
                                           pages_per_name=16,
                                           collision_rate=collision_rate)
        pipeline = ExtractionPipeline.from_vocabulary(
            generator.vocabulary, query_names=names)
        scores = [resolve(generator, pipeline, name).report.bcubed_f1
                  for name in names]
        means.append(sum(scores) / len(scores))
    assert min(means) >= 0.5, means
    assert min(means) >= 0.55 * max(means), means
