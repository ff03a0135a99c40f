"""Block-level units of work, and the one way to schedule them.

Algorithm 1 is defined per block, so "prepare one block", "fit one
block" and "predict one block" are the system's units of work.  Each has
a payload dataclass and a module-level task function here, and these
bodies are the only code that works on a block in a collection pass:
:func:`run_block_tasks` runs them inline for a serial executor and in
pool workers for a parallel one, so which process runs a unit changes
nothing but the schedule.  :func:`run_pass` wraps one such fan-out in
the pass's :class:`~repro.runtime.stats.RunStats`; ``prepare``, ``fit``
and ``predict`` / ``evaluate`` all go through it.  Process-pool workers can only run
module-level functions over picklable payloads, and cannot touch the
parent's counters — which is why every task measures itself
and returns a :class:`~repro.runtime.stats.TaskStats` alongside its
result, under both schedules.

``repro.core`` modules are imported inside the task bodies: the core
imports the runtime package, so importing it back at module level would
cycle.

A parallel fan-out ships its payloads through the pool's own pipe, in
the executor's weighted chunks
(:func:`~repro.runtime.executor.pack_chunks`): a chunk is one pickle,
so what its payloads share — the config, the extraction pipeline —
crosses once per chunk, and a worker unpickles only the chunks it runs.
The task body itself pickles by reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.corpus.documents import NameCollection
from repro.runtime.batch import batched_similarity_graphs
from repro.runtime.stats import RunStats, TaskStats, clock
from repro.similarity.backends import ScoringBackend, resolve_backend
from repro.similarity.base import SimilarityFunction, read_fields

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.core.config import ResolverConfig
    from repro.core.model import FittedBlock
    from repro.extraction.pipeline import ExtractionPipeline
    from repro.graph.entity_graph import WeightedPairGraph
    from repro.runtime.executor import BlockExecutor


def block_graphs(
    block: NameCollection,
    graphs: dict[str, "WeightedPairGraph"] | None,
    pipeline: "ExtractionPipeline | None",
    functions: Sequence[SimilarityFunction],
    features: dict | None = None,
    backend: str | None = None,
    mask: frozenset | None = None,
) -> dict[str, "WeightedPairGraph"]:
    """One block's similarity graphs: supplied, or computed now.

    The one rule every path follows: supplied ``graphs`` are returned as
    they are (identity included — the fit → predict hand-off keys on
    it); else supplied ``features`` are scored; else the block is
    extracted with ``pipeline`` first — for the fields ``functions``
    read between them (:func:`~repro.similarity.base.read_fields`), so a
    pass that scores one function runs one extractor group.  Scoring
    honors the block's candidate ``mask``: a masked block's graphs carry
    candidate edges only.

    Raises:
        ValueError: when neither graphs, features nor a pipeline are
            available.
    """
    if graphs is not None:
        return graphs
    if features is None:
        if pipeline is None:
            raise ValueError(
                f"block {block.query_name!r} has neither precomputed graphs, "
                f"features, nor a pipeline to extract with")
        features = pipeline.extract_block(block,
                                          reads=read_fields(functions))
    return batched_similarity_graphs(block, features, functions,
                                     backend=backend, mask=mask)


def _task_stats(query_name: str, started: float,
                scored: dict[str, "WeightedPairGraph"] | None) -> TaskStats:
    """One block task's cost record: wall time since ``started`` and the
    pairs of the graphs the task ``scored`` itself (``None``: it was
    handed them)."""
    return TaskStats(
        query_name=query_name,
        seconds=clock() - started,
        pairs_scored=sum(graph.n_pairs()
                         for graph in (scored or {}).values()),
    )


@dataclass(frozen=True)
class PrepareBlockTask:
    """Extract one block and compute its similarity graphs."""

    pipeline: "ExtractionPipeline"
    block: NameCollection
    functions: tuple[SimilarityFunction, ...]
    #: scoring-backend name (``None``: the worker's ambient default).
    backend: str | None = None


def run_prepare_block(
    payload: PrepareBlockTask,
) -> tuple[str, Any, Any, TaskStats]:
    """One block of :meth:`ExperimentContext.prepare`."""
    started = clock()
    features = payload.pipeline.extract_block(payload.block)
    graphs = batched_similarity_graphs(payload.block, features,
                                       payload.functions,
                                       backend=payload.backend)
    stats = _task_stats(payload.block.query_name, started, graphs)
    return (payload.block.query_name, features, graphs, stats)


@dataclass(frozen=True)
class FitBlockTask:
    """Fit one block's decisions and combiner parameters."""

    config: "ResolverConfig"
    block: NameCollection
    graphs: dict[str, "WeightedPairGraph"] | None
    pipeline: "ExtractionPipeline | None"
    training_seed: int
    #: candidate-pair mask from blocking (``None``: dense).
    mask: frozenset | None = None


def run_fit_block(payload: FitBlockTask) -> tuple[str, Any, TaskStats]:
    """One block of a collection :meth:`EntityResolver.fit`.

    The fitted block keeps its fit-time layer hand-off only when the
    payload shipped the graphs: the caller then holds the same dict and
    can present it to the predict pass.  Graphs computed here are
    referenced by nobody else, so a hand-off over them could never match
    and would only pin the block's quadratic state.
    """
    from repro.core.resolver import EntityResolver

    started = clock()
    resolver = EntityResolver(payload.config)
    graphs = block_graphs(payload.block, payload.graphs, payload.pipeline,
                          resolver.functions,
                          backend=payload.config.backend,
                          mask=payload.mask)
    fitted = resolver.fit_block(payload.block, graphs,
                                training_seed=payload.training_seed)
    scored = graphs if payload.graphs is None else None
    if scored is not None:
        fitted._layer_cache = None
    stats = _task_stats(payload.block.query_name, started, scored)
    return (payload.block.query_name, fitted, stats)


@dataclass(frozen=True)
class PredictBlockTask:
    """Predict (and optionally score) one block with shipped fitted state."""

    config: "ResolverConfig"
    fitted: "FittedBlock"
    block: NameCollection
    graphs: dict[str, "WeightedPairGraph"] | None
    pipeline: "ExtractionPipeline | None"
    evaluate: bool
    #: candidate-pair mask from blocking (``None``: dense).
    mask: frozenset | None = None


def run_predict_block(
    payload: PredictBlockTask,
) -> tuple[str, Any, TaskStats]:
    """One block of a collection predict / evaluate pass.

    Serves the payload block through the shipped fitted state, which
    need not carry the block's name (a ``model_block`` fallback).
    Graphs computed here cover only the functions the combiner consults
    (:meth:`~repro.core.model.ResolverModel.scoring_functions`).
    """
    from repro.core.model import ResolverModel

    started = clock()
    model = ResolverModel(config=payload.config, blocks={})
    graphs = block_graphs(payload.block, payload.graphs, payload.pipeline,
                          model.scoring_functions(payload.fitted),
                          backend=payload.config.backend,
                          mask=payload.mask)
    serve = model.evaluate_fitted if payload.evaluate else model.predict_fitted
    result = serve(payload.fitted, payload.block, graphs=graphs)
    stats = _task_stats(payload.block.query_name, started,
                        graphs if payload.graphs is None else None)
    return (payload.block.query_name, result, stats)


def run_block_tasks(executor: "BlockExecutor",
                    body: Callable[[Any], Any], payloads: Sequence[Any],
                    weights: Sequence[int] | None = None) -> list[Any]:
    """Run one fan-out of block tasks, results in payload order.

    The scheduling entry point of every collection pass: ``body`` (a
    module-level task function) over every payload, inline for a serial
    executor and in the pool's chunks for a parallel one, ``weights``
    (per-payload cost, e.g. block page counts) driving largest-first
    chunk packing.
    """
    return executor.run(body, payloads, weights=weights)


def run_pass(executor: "BlockExecutor", body: Callable[[Any], Any],
             phase: str, payloads: Sequence[Any],
             started: float | None = None, close: bool = False,
             backend: "str | ScoringBackend | None" = None,
             ) -> tuple[list[tuple], RunStats]:
    """One collection pass's fan-out and its one stats record.

    Runs the task ``body`` per payload through :func:`run_block_tasks`,
    weighted by block page count, and folds every task's
    :class:`~repro.runtime.stats.TaskStats` into a ``phase``
    :class:`~repro.runtime.stats.RunStats`, which names the scoring
    ``backend`` the payloads score with (``None``: the ambient default).
    Returns each task's result without its stats (``(query_name, ...)``
    tuples, in payload order) and the record.

    ``wall_seconds`` runs from ``started`` (a :data:`clock` reading;
    default: now), so a pass that blocked the collection first counts
    blocking too.  ``close=True`` hands the executor over: it is closed
    once the fan-out ends, inside the wall clock, raise or not — the
    passes set it for an executor they built, never for a caller's.
    """
    started = clock() if started is None else started
    stats = RunStats.for_executor(phase, executor,
                                  resolve_backend(backend).name)
    results = []
    try:
        for *result, task_stats in run_block_tasks(
                executor, body, payloads,
                weights=[len(payload.block) for payload in payloads]):
            results.append(tuple(result))
            stats.add_task(task_stats)
    finally:
        if close:
            executor.close()
    stats.wall_seconds = clock() - started
    stats.finish_executor(executor)
    return results, stats
