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

The ``fit`` and ``cluster`` stages work on blocks only through
:mod:`repro.runtime.tasks`: they build one payload per block and hand
the list to :func:`~repro.runtime.tasks.run_block_tasks`, which runs the
task bodies inline under a serial executor and in pool workers under a
parallel one.  One body under two schedules, so the passes are
bit-identical at fixed seeds by construction, and either way a block's
quadratic state lives only as long as its task.  Both stages report a
:class:`~repro.runtime.stats.RunStats` on the context.

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
from repro.runtime.stats import RunStats
from repro.runtime.tasks import FitBlockTask, PredictBlockTask, run_block_tasks

__all__ = [
    "BlockingStage",
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


@register_stage("extract")
class ExtractionStage(Stage):
    """Bind page features to the blocks.

    The default stage materializes nothing: caller-precomputed features
    (``ctx.features_by_name``) pass through, and everything else is
    extracted inside the consuming stage's block task — the streaming
    profile that keeps collection passes one-block resident.  A custom eager stage can fill ``by_name`` up front and
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
    """Bind any precomputed similarity graphs.

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
        return SimilarityGraphs(features=features,
                                by_name=dict(ctx.graphs_by_name or {}))


def _run_block_pass(kind: str, phase: str, graphs: SimilarityGraphs,
                    ctx: PipelineContext, payload_for) -> list:
    """One engine pass: a ``kind`` task per block, results in block order.

    ``payload_for(shipped)`` builds a block's task payload around the
    fields every kind ships: the block, its mask, and what its artifacts
    hold — materialized graphs, else materialized features, else the
    lazily resolved extraction pipeline.  The pass's :class:`RunStats`
    is left on the context for the plan runner.
    """
    started = time.perf_counter()
    stats = RunStats.for_executor(phase, ctx.executor)
    payloads = []
    for block in graphs.blocks:
        block_graphs = graphs.by_name.get(block.query_name)
        features = graphs.features.by_name.get(block.query_name)
        pipeline = None
        if block_graphs is None and features is None:
            pipeline = ctx.require_extraction(graphs.blocks.source)
        payloads.append(payload_for(dict(
            config=ctx.config,
            block=block,
            graphs=block_graphs,
            pipeline=pipeline,
            features=features,
            mask=graphs.blocks.mask_for(block.query_name),
        )))
    results = []
    for _, result, task_stats in run_block_tasks(
            ctx.executor, kind, payloads,
            weights=[len(block) for block in graphs.blocks], stats=stats):
        results.append(result)
        stats.add_task(task_stats)
    stats.wall_seconds = time.perf_counter() - started
    stats.finish_executor(ctx.executor)
    ctx.pending_run_stats = stats
    return results


@register_stage("fit")
class FitDecisionsStage(Stage):
    """Learn every block's decision layers and combiner parameters.

    The only label-consuming stage: per block it draws the training
    sample, fits the (function × criterion) decision grid, estimates
    layer accuracies and freezes the combiner's parameters — one
    :func:`~repro.runtime.tasks.run_fit_block` task per block, wherever
    the executor runs it.
    """

    name = "fit"
    consumes = SimilarityGraphs
    produces = Decisions

    def run(self, graphs: SimilarityGraphs,
            ctx: PipelineContext) -> Decisions:
        fitted = _run_block_pass(
            "fit", "fit", graphs, ctx,
            lambda shipped: FitBlockTask(training_seed=ctx.training_seed,
                                         **shipped))
        return Decisions(graphs=graphs,
                         fitted=dict(zip(graphs.blocks.names(), fitted)))


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
    ground truth — one :func:`~repro.runtime.tasks.run_predict_block`
    task per block, wherever the executor runs it.  The fitted blocks
    ship as they are: pickling leaves a fit-time hand-off behind, and
    the inline schedule gets to consume it.
    """

    name = "cluster"
    consumes = Decisions
    produces = Resolution

    def run(self, decisions: Decisions, ctx: PipelineContext) -> Resolution:
        results = _run_block_pass(
            "predict", "evaluate" if ctx.evaluate else "predict",
            decisions.graphs, ctx,
            lambda shipped: PredictBlockTask(
                fitted=decisions.fitted[shipped["block"].query_name],
                evaluate=ctx.evaluate, **shipped))
        return Resolution(dataset=decisions.blocks.dataset, results=results)
