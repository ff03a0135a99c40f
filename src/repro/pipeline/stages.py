"""Built-in pipeline stages — the monolithic flow, rehosted.

These six stages carry the dataflow that used to be hard-wired inside
``EntityResolver.fit`` and ``ResolverModel.predict_collection``:

* ``block`` — :class:`BlockingStage`: the config-selected blocking
  scheme.  The default ``"query_name"`` blocker is the paper's (one
  dense block per ambiguous query name, bit-identical to the
  pre-registry pipeline); any other registered blocker re-blocks the
  corpus into candidate-connected components carrying candidate-pair
  masks that restrict every downstream quadratic step.
* ``extract`` — :class:`ExtractionStage`: binds features (materializing
  nothing by default; the heavy stages pull per block).
* ``similarity`` — :class:`SimilarityStage`: binds the config's function
  battery and any precomputed graphs.
* ``fit`` — :class:`FitDecisionsStage`: learns per-block decision layers
  and combiner parameters (label-consuming; fit plans only).
* ``decide`` — :class:`FittedDecisionsStage`: resolves a model's stored
  state per block, including the ``model_block`` fallback (predict
  plans only).
* ``cluster`` — :class:`ClusterStage`: applies fitted decisions, combines
  and clusters every block into the final :class:`Resolution`.

The ``fit`` and ``cluster`` stages are executor-aware: serial runs
stream block-by-block through a pass-local
:class:`~repro.runtime.cache.SimilarityCache` (dropping each block's
quadratic state before the next), parallel runs fan the same work out
through :mod:`repro.runtime.tasks` payloads.  Both report a
:class:`~repro.runtime.stats.RunStats` on the context.  Serial and
parallel stage execution are bit-identical at fixed seeds, exactly as
the pre-pipeline code paths were.

``repro.core`` modules are imported inside stage bodies: the registry's
lazy built-in loading imports this module, which must therefore never
touch a core module at import time (it may still be initializing).
"""

from __future__ import annotations

import time

from repro.core.registry import BLOCKERS, register_stage
from repro.pipeline.artifacts import (
    Blocks,
    Corpus,
    Decisions,
    FeatureSet,
    Resolution,
    SimilarityGraphs,
)
from repro.pipeline.stage import PipelineContext, Stage
from repro.runtime.cache import SimilarityCache
from repro.runtime.stats import RunStats, TaskStats

__all__ = [
    "BlockingStage",
    "QueryNameBlockingStage",
    "ExtractionStage",
    "SimilarityStage",
    "FitDecisionsStage",
    "FittedDecisionsStage",
    "ClusterStage",
]


@register_stage("block")
class BlockingStage(Stage):
    """The config-selected blocking scheme (``ResolverConfig.blocker``).

    Pairs are only ever formed within a block, which is what makes
    every later stage embarrassingly parallel.  The default
    ``"query_name"`` blocker is the paper's scheme (§IV-C): one block
    per ambiguous query name, no candidate mask — the dense fast path,
    bit-identical to the pre-registry pipeline.  Any other name in
    :data:`~repro.core.registry.BLOCKERS` runs over the corpus's page
    universe; its candidate pairs are partitioned into connected
    components (:func:`~repro.blocking.base.blocks_from_candidates`),
    one synthetic block each, whose masks restrict every downstream
    quadratic step to candidate pairs.  Swap this stage
    (``@register_stage`` + a custom plan) to shard, filter or re-block
    the corpus without touching extraction, similarity or fitting.
    """

    name = "block"
    consumes = Corpus
    produces = Blocks

    def run(self, corpus: Corpus, ctx: PipelineContext) -> Blocks:
        blocker_name = ctx.config.blocker
        if blocker_name == "query_name":
            return Blocks(blocks=list(corpus.collection),
                          source=corpus.collection)
        from repro.blocking.base import blocks_from_candidates

        blocker = BLOCKERS.get(blocker_name)()
        pages = list(corpus.collection.all_pages())
        result = blocker.block(pages)
        blocks, masks = blocks_from_candidates(pages, result.candidate_pairs)
        return Blocks(blocks=blocks, source=corpus.collection, masks=masks)


#: Backwards-compatible alias: the stage predates the blocker registry,
#: when it implemented only the paper's query-name scheme.
QueryNameBlockingStage = BlockingStage


@register_stage("extract")
class ExtractionStage(Stage):
    """Bind page features to the blocks.

    The default stage materializes nothing: caller-precomputed features
    (``ctx.features_by_name``) pass through, and everything else is
    extracted per block by the consuming stage through the pass's cache
    — the streaming profile that keeps collection passes one-block
    resident.  A custom eager stage can fill ``by_name`` up front and
    downstream stages use those entries as-is.
    """

    name = "extract"
    consumes = Blocks
    produces = FeatureSet

    def run(self, blocks: Blocks, ctx: PipelineContext) -> FeatureSet:
        return FeatureSet(blocks=blocks,
                          by_name=dict(ctx.features_by_name or {}))


@register_stage("similarity")
class SimilarityStage(Stage):
    """Bind the function battery and any precomputed similarity graphs.

    Precomputed graphs (``ctx.graphs_by_name``, e.g. an
    :class:`~repro.experiments.runner.ExperimentContext`'s) pass through
    by reference — identity is preserved so the fit-time layer hand-off
    (:meth:`FittedBlock.decision_layers`) still short-circuits the
    immediate fit → predict pass.  Missing blocks are computed on demand
    downstream.
    """

    name = "similarity"
    consumes = FeatureSet
    produces = SimilarityGraphs

    def run(self, features: FeatureSet,
            ctx: PipelineContext) -> SimilarityGraphs:
        from repro.similarity.functions import functions_subset

        return SimilarityGraphs(
            features=features,
            by_name=dict(ctx.graphs_by_name or {}),
            functions=functions_subset(ctx.config.function_names),
            backend=ctx.config.backend)


def _graphs_for_block(block, graphs: SimilarityGraphs, ctx: PipelineContext,
                      cache: SimilarityCache, functions=None):
    """One block's similarity graphs: materialized, or computed now.

    Features come from the feature artifact when materialized, else the
    block is extracted with the lazily resolved pipeline.  Fresh graphs
    run through ``cache`` for pair-granular accounting and reuse, and
    honor the block's candidate mask: a masked block's graphs carry
    candidate edges only.  ``functions`` narrows a fresh computation to
    the functions the consumer reads (default: the bound battery).
    """
    from repro.core.model import compute_similarity_graphs

    block_graphs = graphs.by_name.get(block.query_name)
    if block_graphs is not None:
        return block_graphs
    features = graphs.features.by_name.get(block.query_name)
    if features is None:
        pipeline = ctx.require_extraction(graphs.blocks.source)
        features = cache.features_for(block, pipeline.extract_block)
    if functions is None:
        functions = graphs.functions
    return compute_similarity_graphs(block, features, functions,
                                     cache=cache, backend=graphs.backend,
                                     mask=graphs.blocks.mask_for(
                                         block.query_name))


@register_stage("fit")
class FitDecisionsStage(Stage):
    """Learn every block's decision layers and combiner parameters.

    The only label-consuming stage: per block it draws the training
    sample, fits the (function × criterion) decision grid, estimates
    layer accuracies and freezes the combiner's parameters — by calling
    :meth:`EntityResolver.fit_block`, the same per-block unit the
    executors schedule.  Serial and parallel execution produce identical
    fitted state.
    """

    name = "fit"
    consumes = SimilarityGraphs
    produces = Decisions

    def run(self, graphs: SimilarityGraphs,
            ctx: PipelineContext) -> Decisions:
        started = time.perf_counter()
        stats = RunStats.for_executor("fit", ctx.executor)
        if ctx.executor.is_serial:
            fitted = self._run_serial(graphs, ctx, stats)
        else:
            fitted = self._run_parallel(graphs, ctx, stats)
        stats.wall_seconds = time.perf_counter() - started
        stats.finish_executor(ctx.executor)
        ctx.pending_run_stats = stats
        return Decisions(graphs=graphs, fitted=fitted)

    def _resolver(self, ctx: PipelineContext):
        from repro.core.resolver import EntityResolver

        return ctx.resolver or EntityResolver(ctx.config)

    def _run_serial(self, graphs: SimilarityGraphs, ctx: PipelineContext,
                    stats: RunStats):
        resolver = self._resolver(ctx)
        # The cache lives for this stage only: it counts scored pairs for
        # RunStats and dedups graph work, without retaining quadratic
        # state past the pass.
        cache = ctx.fresh_cache()
        fitted = {}
        for block in graphs.blocks:
            block_started = time.perf_counter()
            misses_before = cache.pair_misses
            hits_before = cache.pair_hits
            block_graphs = _graphs_for_block(block, graphs, ctx, cache)
            fitted[block.query_name] = resolver.fit_block(
                block, block_graphs, ctx.training_seed)
            stats.add_task(TaskStats(
                query_name=block.query_name,
                seconds=time.perf_counter() - block_started,
                pairs_scored=cache.pair_misses - misses_before,
                cache_hits=cache.pair_hits - hits_before,
                cache_misses=cache.pair_misses - misses_before,
            ))
            cache.drop_block(block)
        return fitted

    def _run_parallel(self, graphs: SimilarityGraphs, ctx: PipelineContext,
                      stats: RunStats):
        from repro.runtime.tasks import FitBlockTask, run_block_tasks

        payloads = []
        weights = []
        for block in graphs.blocks:
            block_graphs = graphs.by_name.get(block.query_name)
            features = graphs.features.by_name.get(block.query_name)
            pipeline = None
            if block_graphs is None and features is None:
                pipeline = ctx.require_extraction(graphs.blocks.source)
            payloads.append(FitBlockTask(
                config=ctx.config,
                block=block,
                graphs=block_graphs,
                pipeline=pipeline,
                training_seed=ctx.training_seed,
                features=features,
                mask=graphs.blocks.mask_for(block.query_name),
            ))
            weights.append(len(block))
        fitted = {}
        for query_name, fitted_block, task_stats in run_block_tasks(
                ctx.executor, "fit", payloads, weights=weights,
                stats=stats):
            fitted[query_name] = fitted_block
            stats.add_task(task_stats)
        return fitted


@register_stage("decide")
class FittedDecisionsStage(Stage):
    """Resolve the serving model's fitted state for every block.

    Fitted names always use their own state; unknown names fall back to
    ``ctx.model_block`` when given.  Resolving up front (rather than
    mid-loop) makes a missing block fail before any block is served,
    with the model's standard ``KeyError`` listing the fitted names.
    """

    name = "decide"
    consumes = SimilarityGraphs
    produces = Decisions

    def run(self, graphs: SimilarityGraphs,
            ctx: PipelineContext) -> Decisions:
        model = ctx.model
        if model is None:
            raise ValueError(
                "the decide stage serves a fitted model; run it through "
                "ResolverModel.predict/evaluate or set ctx.model")
        fitted = {}
        for block in graphs.blocks:
            fallback = (ctx.model_block
                        if block.query_name not in model.blocks else None)
            fitted[block.query_name] = model._fitted_for(
                fallback or block.query_name)
        return Decisions(graphs=graphs, fitted=fitted)


@register_stage("cluster")
class ClusterStage(Stage):
    """Apply fitted decisions, combine, and cluster every block.

    The label-free serving stage: per block it re-applies the fitted
    decision grid to the block's similarity graphs, combines the layers,
    clusters the combined graph, and (on evaluate plans) scores against
    ground truth.  Serial runs stream; parallel runs ship detached
    fitted state to workers.  Bit-identical across executors.
    """

    name = "cluster"
    consumes = Decisions
    produces = Resolution

    def run(self, decisions: Decisions, ctx: PipelineContext) -> Resolution:
        model = ctx.model
        if model is None:
            raise ValueError(
                "the cluster stage serves a fitted model; run it through "
                "ResolverModel.predict/evaluate or set ctx.model")
        started = time.perf_counter()
        stats = RunStats.for_executor(
            "evaluate" if ctx.evaluate else "predict", ctx.executor)
        if ctx.executor.is_serial:
            results = self._run_serial(decisions, ctx, stats)
        else:
            results = self._run_parallel(decisions, ctx, stats)
        stats.wall_seconds = time.perf_counter() - started
        stats.finish_executor(ctx.executor)
        ctx.pending_run_stats = stats
        return Resolution(dataset=decisions.blocks.dataset, results=results)

    def _run_serial(self, decisions: Decisions, ctx: PipelineContext,
                    stats: RunStats):
        model = ctx.model
        graphs = decisions.graphs
        serve = (model.evaluate_fitted if ctx.evaluate
                 else model.predict_fitted)
        # An explicit pipeline= must never be served stale values another
        # pipeline put into the model's content-keyed cache; a pass-local
        # cache keeps the accounting and streaming behavior without that
        # risk.
        cache = (ctx.fresh_cache() if ctx.explicit_extraction
                 else model._similarity_cache)
        results = []
        for block in graphs.blocks:
            block_started = time.perf_counter()
            hits_before = cache.pair_hits
            misses_before = cache.pair_misses
            fitted = decisions.fitted[block.query_name]
            # Only what the combiner consults is scored (and counted).
            block_graphs = _graphs_for_block(
                block, graphs, ctx, cache,
                functions=model.scoring_functions(fitted, graphs.functions))
            results.append(serve(fitted, block, graphs=block_graphs))
            stats.add_task(TaskStats(
                query_name=block.query_name,
                seconds=time.perf_counter() - block_started,
                pairs_scored=cache.pair_misses - misses_before,
                cache_hits=cache.pair_hits - hits_before,
                cache_misses=cache.pair_misses - misses_before,
            ))
            # Streamed memory profile: a served block's quadratic cache
            # entries are dropped before the next block is touched.
            cache.drop_block(block)
        return results

    def _run_parallel(self, decisions: Decisions, ctx: PipelineContext,
                      stats: RunStats):
        from repro.core.model import detach_fitted
        from repro.runtime.tasks import PredictBlockTask, run_block_tasks

        graphs = decisions.graphs
        payloads = []
        weights = []
        for block in graphs.blocks:
            block_graphs = graphs.by_name.get(block.query_name)
            features = graphs.features.by_name.get(block.query_name)
            pipeline = None
            if block_graphs is None and features is None:
                pipeline = ctx.require_extraction(graphs.blocks.source)
            payloads.append(PredictBlockTask(
                config=ctx.config,
                fitted=detach_fitted(decisions.fitted[block.query_name]),
                block=block,
                graphs=block_graphs,
                pipeline=pipeline,
                evaluate=ctx.evaluate,
                features=features,
                mask=graphs.blocks.mask_for(block.query_name),
            ))
            weights.append(len(block))
        results = []
        for _, result, task_stats in run_block_tasks(
                ctx.executor, "predict", payloads, weights=weights,
                stats=stats):
            results.append(result)
            stats.add_task(task_stats)
        return results
