"""Shared experiment runner.

Implements the paper's evaluation protocol (§V-A2): for each of several
runs, draw a fresh 10 % training sample per name, resolve, score against
ground truth, and average.  Similarity graphs are computed once per
dataset and shared across configurations, runs and baselines — they do not
depend on the training sample.

Preparation and the per-run fit/evaluate passes are scheduled by the
runtime engine (:mod:`repro.runtime`): every pass is one task per block
(:mod:`repro.runtime.tasks`), ``prepare(..., workers=4)`` runs those
tasks on a process pool instead of inline, and every pass reports a
:class:`~repro.runtime.stats.RunStats` — see ``docs/performance.md``.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.baselines.base import PairwiseBaseline
from repro.core.config import ResolverConfig
from repro.core.labels import TrainingSample
from repro.core.resolver import EntityResolver
from repro.corpus.documents import DocumentCollection
from repro.extraction.features import PageFeatures
from repro.extraction.pipeline import ExtractionPipeline
from repro.graph.entity_graph import WeightedPairGraph
from repro.metrics.clusterings import clustering_from_assignments
from repro.metrics.report import MetricReport, evaluate_clustering, mean_report
from repro.ml.sampling import sample_training_pairs, training_runs
from repro.runtime.cache import SimilarityCache
from repro.runtime.executor import BlockExecutor, executor_for_workers
from repro.runtime.stats import RunStats
from repro.runtime.tasks import PrepareBlockTask, run_block_tasks
from repro.similarity.functions import default_functions


@dataclass
class ExperimentContext:
    """A dataset with its precomputed features and similarity graphs.

    Attributes:
        stats: the engine's record of the preparation pass (wall time,
            pairs scored, per-block timings).
    """

    collection: DocumentCollection
    features_by_name: dict[str, dict[str, PageFeatures]]
    graphs_by_name: dict[str, dict[str, WeightedPairGraph]]
    stats: RunStats | None = None

    @classmethod
    def prepare(cls, collection: DocumentCollection,
                pipeline: ExtractionPipeline | None = None,
                functions: list | None = None,
                workers: int = 1,
                oversubscribe: bool = False,
                executor: BlockExecutor | None = None,
                backend: str | None = None,
                cache: SimilarityCache | None = None) -> "ExperimentContext":
        """Run extraction and the quadratic similarity step once.

        All ten Table I functions are computed by default so every
        configuration (any subset) can reuse the same graphs; pass
        ``functions`` (e.g. ``repro.similarity.extended.full_battery()``)
        to precompute a different battery.

        Blocks are independent, so preparation parallelizes perfectly:
        ``workers=N`` (or an explicit ``executor``) fans the per-block
        work out to a process pool; results are merged in block order and
        are identical to a serial run.  A pool built here from
        ``workers=`` is closed before returning; an explicit ``executor``
        stays open for the caller to reuse (and close).
        ``oversubscribe`` lifts the worker-count core cap
        (see :class:`~repro.runtime.executor.ProcessPoolBlockExecutor`).  ``backend`` selects the scoring
        backend for the quadratic step (``None``: ambient default;
        bit-identical either way).

        Every block is scored through a transient cache of its task's
        own, so the pass keeps one block's quadratic state at a time
        beyond the graphs it returns.  Pass an external ``cache``
        (serial only) to *retain* the prepared features and pair
        weights instead — hand it to
        :meth:`~repro.core.model.ResolverModel.adopt_similarity_cache`
        and subsequent predict calls serve from the prepared state
        rather than recomputing the quadratic step.
        """
        if pipeline is None:
            pipeline = EntityResolver(ResolverConfig()).pipeline_for(collection)
        functions = functions if functions is not None else default_functions()
        owns_executor = executor is None
        executor = executor or executor_for_workers(
            workers, oversubscribe=oversubscribe)
        if cache is not None and not executor.is_serial:
            raise ValueError(
                "a retained prepare cache requires serial execution; "
                "parallel workers fill transient per-process caches")
        started = time.perf_counter()
        stats = RunStats.for_executor("prepare", executor)
        features_by_name = {}
        graphs_by_name = {}
        payloads = [PrepareBlockTask(pipeline=pipeline, block=block,
                                     functions=tuple(functions),
                                     backend=backend, cache=cache)
                    for block in collection]
        try:
            for name, features, graphs, task_stats in run_block_tasks(
                    executor, "prepare", payloads,
                    weights=[len(block) for block in collection],
                    stats=stats):
                features_by_name[name] = features
                graphs_by_name[name] = graphs
                stats.add_task(task_stats)
        finally:
            # The pool is ours only if we built it from `workers=`;
            # caller-provided executors stay open for reuse.
            if owns_executor:
                executor.close()
        stats.wall_seconds = time.perf_counter() - started
        stats.finish_executor(executor)
        return cls(collection=collection,
                   features_by_name=features_by_name,
                   graphs_by_name=graphs_by_name,
                   stats=stats)

    def seeds(self, n_runs: int = 5, base_seed: int = 0) -> list[int]:
        """The protocol's per-run training seeds."""
        return training_runs(n_runs=n_runs, base_seed=base_seed)


@dataclass
class RunResult:
    """Per-run, per-name metric reports for one strategy.

    Attributes:
        stats: aggregated engine stats across the runs (fit + evaluate
            passes), when the strategy ran through the engine.
        stage_seconds: aggregated per-stage wall time across the runs'
            plan executions (``stage name -> seconds``), when the
            strategy ran through stage plans.
    """

    label: str
    #: one entry per run: query name -> metric report
    per_seed_reports: list[dict[str, MetricReport]] = field(default_factory=list)
    stats: RunStats | None = None
    stage_seconds: dict[str, float] = field(default_factory=dict)

    def add_stage_stats(self, stage_stats) -> None:
        """Fold one plan run's per-stage timings into the aggregate."""
        for entry in stage_stats or []:
            self.stage_seconds[entry.stage] = (
                self.stage_seconds.get(entry.stage, 0.0) + entry.seconds)

    def names(self) -> list[str]:
        return list(self.per_seed_reports[0]) if self.per_seed_reports else []

    def mean(self) -> MetricReport:
        """Grand mean: average names within a run, then average runs."""
        per_run = [mean_report(list(reports.values()))
                   for reports in self.per_seed_reports]
        return mean_report(per_run)

    def name_mean(self, query_name: str) -> MetricReport:
        """Average of one name's reports across runs."""
        return mean_report([reports[query_name]
                            for reports in self.per_seed_reports])

    def metric(self, metric: str = "fp") -> float:
        """Convenience: one scalar for the whole run."""
        return self.mean().get(metric)


def run_config(context: ExperimentContext, config: ResolverConfig,
               seeds: Sequence[int], label: str | None = None,
               executor: BlockExecutor | None = None) -> RunResult:
    """Evaluate a resolver configuration under the multi-run protocol.

    Each run fits a fresh :class:`~repro.core.model.ResolverModel` on its
    training draw, then evaluates the model's (label-free) predictions —
    the same fit → predict → score split the serving API uses.  Both
    passes are stage-plan executions; their per-stage timings accumulate
    on the result's ``stage_seconds`` alongside the merged engine stats.
    ``executor`` (default: the config's) schedules the per-block work of
    both passes; when the config selects a parallel backend, one
    persistent pool is built here and reused by every seed's fit and
    evaluate pass — a whole protocol run pays a single fork wave.
    """
    from repro.runtime.executor import executor_from_config

    resolver = EntityResolver(config)
    result = RunResult(label=label or config.combiner)
    owns_executor = executor is None
    if owns_executor:
        executor = executor_from_config(config)
    try:
        for seed in seeds:
            model = resolver.fit(context.collection, training_seed=seed,
                                 graphs_by_name=context.graphs_by_name,
                                 executor=executor)
            resolution = model.evaluate_collection(
                context.collection, graphs_by_name=context.graphs_by_name,
                executor=executor)
            result.per_seed_reports.append(
                {block.query_name: block.report
                 for block in resolution.blocks})
            for stats in (model.fit_stats, resolution.stats):
                if stats is None:
                    continue
                result.stats = (
                    stats if result.stats is None
                    else result.stats.merged(stats, phase="protocol"))
            result.add_stage_stats(model.fit_stage_stats)
            result.add_stage_stats(resolution.stage_stats)
    finally:
        if owns_executor:
            executor.close()
    return result


def run_baseline(context: ExperimentContext, baseline: PairwiseBaseline,
                 seeds: Sequence[int],
                 training_fraction: float = 0.1,
                 sampling_mode: str = "pairs",
                 label: str | None = None) -> RunResult:
    """Evaluate a baseline under the same protocol as :func:`run_config`."""
    result = RunResult(label=label or baseline.name)
    for seed in seeds:
        reports: dict[str, MetricReport] = {}
        for block in context.collection:
            training = TrainingSample.from_pairs(sample_training_pairs(
                block, fraction=training_fraction, seed=seed,
                mode=sampling_mode))
            predicted = baseline.resolve_block(
                block, context.graphs_by_name[block.query_name], training)
            truth = clustering_from_assignments(block.ground_truth())
            reports[block.query_name] = evaluate_clustering(predicted, truth)
        result.per_seed_reports.append(reports)
    return result
