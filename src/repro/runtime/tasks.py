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

For parallel executors :func:`run_block_tasks` pickles the whole
payload list **once** into a shared-memory shard and dispatches
:class:`ShardedBlockTask` descriptors of a few dozen bytes; a worker
unpickles the shard once per fan-out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.corpus.documents import NameCollection
from repro.runtime.batch import batched_similarity_graphs
from repro.runtime.shards import ShardHandle, ShardStore, load_shard
from repro.runtime.stats import RunStats, TaskStats, Timer, clock
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
                scored: dict[str, "WeightedPairGraph"] | None,
                attach_seconds: float = 0.0) -> TaskStats:
    """One block task's cost record: wall time since ``started``, the
    shard ``attach_seconds`` spent before it, and the pairs of the
    graphs the task ``scored`` itself (``None``: it was handed them)."""
    return TaskStats(
        query_name=query_name,
        seconds=clock() - started,
        pairs_scored=sum(graph.n_pairs()
                         for graph in (scored or {}).values()),
        attach_unpickle_seconds=attach_seconds,
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
    payload: PrepareBlockTask, attach_seconds: float = 0.0,
) -> tuple[str, Any, Any, TaskStats]:
    """One block of :meth:`ExperimentContext.prepare`."""
    started = clock()
    features = payload.pipeline.extract_block(payload.block)
    graphs = batched_similarity_graphs(payload.block, features,
                                       payload.functions,
                                       backend=payload.backend)
    stats = _task_stats(payload.block.query_name, started, graphs,
                        attach_seconds)
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


def run_fit_block(
    payload: FitBlockTask, attach_seconds: float = 0.0,
) -> tuple[str, Any, TaskStats]:
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
    stats = _task_stats(payload.block.query_name, started, scored,
                        attach_seconds)
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
    payload: PredictBlockTask, attach_seconds: float = 0.0,
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
                        graphs if payload.graphs is None else None,
                        attach_seconds)
    return (payload.block.query_name, result, stats)


#: Task kinds dispatchable through a shard (name -> worker body, called
#: as ``body(payload, attach_seconds)``).
TASK_KINDS: dict[str, Callable[[Any, float], Any]] = {
    "prepare": run_prepare_block,
    "fit": run_fit_block,
    "predict": run_predict_block,
}


@dataclass(frozen=True)
class BlockShard:
    """One fan-out's full payload list, published as a single shard.

    Pickling the list in one buffer lets the pickle memo deduplicate
    everything the payloads share — the config, the extraction pipeline,
    the similarity functions — so shared state crosses the process
    boundary exactly once per run instead of once per block.
    """

    kind: str
    payloads: tuple


@dataclass(frozen=True)
class ShardedBlockTask:
    """A few-dozen-byte descriptor of one task inside a published shard."""

    handle: ShardHandle
    index: int


def run_sharded_block(task: ShardedBlockTask) -> Any:
    """Worker body: resolve the shard (cached per process) and run one task.

    The time spent resolving the shard — attach and unpickle; near zero
    on cache hits — is handed to the task body, which records it on its
    :class:`TaskStats` so the scheduling side can report it.
    """
    with Timer() as attach:
        shard: BlockShard = load_shard(task.handle)
    return TASK_KINDS[shard.kind](shard.payloads[task.index], attach.seconds)


def run_block_tasks(executor: "BlockExecutor", kind: str,
                    payloads: Sequence[Any],
                    weights: Sequence[int] | None = None,
                    stats: RunStats | None = None) -> list[Any]:
    """Run one fan-out of block tasks, results in payload order.

    The scheduling entry point of every collection pass.  Serial
    executors run the task bodies inline, in payload order — no shard is
    published, so degraded and single-payload paths never touch shared
    memory.  Parallel executors get the shard treatment: the payload
    list is published once (:class:`BlockShard`), tasks shrink to
    :class:`ShardedBlockTask` descriptors, and ``weights`` (per-payload
    cost, e.g. block page counts) drives largest-first chunk packing.
    Results are identical to ``executor.run(task, payloads)`` in value
    and order.

    ``stats`` (a :class:`~repro.runtime.stats.RunStats`) receives the
    published shard bytes.
    """
    task = TASK_KINDS[kind]
    if len(payloads) <= 1 or executor.is_serial:
        return executor.run(task, payloads, weights=weights)
    with ShardStore() as store:
        handle = store.publish(BlockShard(kind=kind,
                                          payloads=tuple(payloads)),
                               label=kind)
        if stats is not None:
            stats.shard_bytes_published += handle.nbytes
        sharded = [ShardedBlockTask(handle=handle, index=index)
                   for index in range(len(payloads))]
        return executor.run(run_sharded_block, sharded, weights=weights)


def run_pass(executor: "BlockExecutor", kind: str, phase: str,
             payloads: Sequence[Any], started: float | None = None,
             close: bool = False,
             backend: "str | ScoringBackend | None" = None,
             ) -> tuple[list[tuple], RunStats]:
    """One collection pass's fan-out and its one stats record.

    Runs a ``kind`` task per payload through :func:`run_block_tasks`,
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
                executor, kind, payloads,
                weights=[len(payload.block) for payload in payloads],
                stats=stats):
            results.append(tuple(result))
            stats.add_task(task_stats)
    finally:
        if close:
            executor.close()
    stats.wall_seconds = clock() - started
    stats.finish_executor(executor)
    return results, stats
