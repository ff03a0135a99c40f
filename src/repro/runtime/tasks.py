"""Block-level units of work, and the one way to schedule them.

Algorithm 1 is defined per block, so "prepare one block", "fit one
block" and "predict one block" are the system's units of work.  Each has
a payload dataclass and a module-level task function here, and these
bodies are the only code that works on a block in a collection pass:
:func:`run_block_tasks` runs them inline for a serial executor and in
pool workers for a parallel one, so which process runs a unit changes
nothing but the schedule.  Process-pool workers can only run
module-level functions over picklable payloads, and cannot touch the
parent's caches or counters — which is why every task measures itself
and returns a :class:`~repro.runtime.stats.TaskStats` alongside its
result, under both schedules.

``repro.core`` modules are imported inside the task bodies: the core
imports the runtime package, so importing it back at module level would
cycle.

For parallel executors :func:`run_block_tasks` publishes the whole
payload list **once** as a shared-memory shard and dispatches
:class:`ShardedBlockTask` descriptors of a few dozen bytes.  Before
publishing, each payload's numeric bulk — eager feature dicts and
precomputed graphs — is stripped out of the pickle stream and written
into the segment as raw columnar planes (:mod:`repro.runtime.planes`);
the pickled residual carries only slot markers
(:class:`FeaturePlaneSlot` / :class:`GraphPlaneSlot`) that workers
rebind to zero-copy views on attach.  ``REPRO_SHARD_PLANES=0`` disables
the stripping (everything pickles, as before PR 10), which the runtime
benchmark uses to measure the zero-copy speedup.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, replace
from functools import partial
from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.corpus.documents import NameCollection
from repro.runtime.batch import batched_similarity_graphs
from repro.runtime.cache import SimilarityCache
from repro.runtime.shards import ShardHandle, ShardStore, load_shard
from repro.runtime.stats import TaskStats
from repro.similarity.base import SimilarityFunction, read_fields

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.runtime.executor import BlockExecutor

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.core.config import ResolverConfig
    from repro.core.model import FittedBlock
    from repro.extraction.pipeline import ExtractionPipeline
    from repro.graph.entity_graph import WeightedPairGraph
    from repro.runtime.stats import RunStats

#: Tri-state import probe for the plane codec (needs numpy); resolved on
#: first use so plane-free serial runs never pay the import.
_PLANES_IMPORTABLE: bool | None = None


def planes_enabled() -> bool:
    """Whether fan-outs strip numeric bulk into zero-copy planes.

    On by default; ``REPRO_SHARD_PLANES=0`` (or ``false``/``off``/``no``)
    forces the legacy pickle-everything path, and hosts without numpy
    degrade to it automatically.
    """
    raw = os.environ.get("REPRO_SHARD_PLANES", "").strip().lower()
    if raw in ("0", "false", "off", "no"):
        return False
    global _PLANES_IMPORTABLE
    if _PLANES_IMPORTABLE is None:
        try:
            import repro.runtime.planes  # noqa: F401
        except ImportError:  # pragma: no cover - numpy-free host
            _PLANES_IMPORTABLE = False
        else:
            _PLANES_IMPORTABLE = True
    return _PLANES_IMPORTABLE


def block_graphs(
    block: NameCollection,
    graphs: dict[str, "WeightedPairGraph"] | None,
    pipeline: "ExtractionPipeline | None",
    functions: Sequence[SimilarityFunction],
    cache: SimilarityCache | None,
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
    pass that scores one function runs one extractor group.  Extraction
    and scoring go through ``cache`` when one is given (pair-granular
    accounting, and reuse across calls that share it), and honor the
    block's candidate ``mask``: a masked block's graphs carry candidate
    edges only.

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
        reads = read_fields(functions)
        extract = partial(pipeline.extract_block, reads=reads)
        features = (extract(block) if cache is None
                    else cache.features_for(block, extract, reads))
    return batched_similarity_graphs(block, features, functions, cache=cache,
                                     backend=backend, mask=mask)


def _task_stats(query_name: str, started: float, cache: SimilarityCache,
                before: tuple[int, int] = (0, 0)) -> TaskStats:
    """One block task's cost record: wall time since ``started``, and
    what it scored through ``cache`` since the cache's ``(pair_hits,
    pair_misses)`` read ``before`` (default: a cache the task created)
    — a delta, so a cache shared across tasks (a retained prepare
    cache) is attributed block by block."""
    misses = cache.pair_misses - before[1]
    return TaskStats(
        query_name=query_name,
        seconds=time.perf_counter() - started,
        pairs_scored=misses,
        cache_hits=cache.pair_hits - before[0],
        cache_misses=misses,
    )


@dataclass(frozen=True)
class PrepareBlockTask:
    """Extract one block and compute its similarity graphs."""

    pipeline: "ExtractionPipeline"
    block: NameCollection
    functions: tuple[SimilarityFunction, ...]
    #: scoring-backend name (``None``: the worker's ambient default).
    backend: str | None = None
    #: a cache that outlives the task and keeps the block's entries (the
    #: prepare-once / serve-many hand-off).  Inline schedule only: a
    #: worker process would fill a copy.  ``None``: a transient one.
    cache: SimilarityCache | None = None


def run_prepare_block(payload: PrepareBlockTask) -> tuple[str, Any, Any, TaskStats]:
    """One block of :meth:`ExperimentContext.prepare`."""
    started = time.perf_counter()
    cache = SimilarityCache() if payload.cache is None else payload.cache
    before = (cache.pair_hits, cache.pair_misses)
    features = cache.features_for(payload.block,
                                  payload.pipeline.extract_block)
    graphs = batched_similarity_graphs(payload.block, features,
                                       payload.functions, cache=cache,
                                       backend=payload.backend)
    stats = _task_stats(payload.block.query_name, started, cache, before)
    return (payload.block.query_name, features, graphs, stats)


@dataclass(frozen=True)
class FitBlockTask:
    """Fit one block's decisions and combiner parameters."""

    config: "ResolverConfig"
    block: NameCollection
    graphs: dict[str, "WeightedPairGraph"] | None
    pipeline: "ExtractionPipeline | None"
    training_seed: int
    #: materialized features from an eager extraction stage (skips
    #: in-worker extraction when graphs are absent).
    features: dict | None = None
    #: candidate-pair mask from the blocking stage (``None``: dense).
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

    started = time.perf_counter()
    cache = SimilarityCache()
    resolver = EntityResolver(payload.config)
    graphs = block_graphs(payload.block, payload.graphs, payload.pipeline,
                          resolver.functions, cache,
                          features=payload.features,
                          backend=payload.config.backend,
                          mask=payload.mask)
    fitted = resolver.fit_block(payload.block, graphs,
                                training_seed=payload.training_seed)
    if payload.graphs is None:
        fitted._layer_cache = None
    stats = _task_stats(payload.block.query_name, started, cache)
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
    #: materialized features from an eager extraction stage (skips
    #: in-worker extraction when graphs are absent).
    features: dict | None = None
    #: candidate-pair mask from the blocking stage (``None``: dense).
    mask: frozenset | None = None


def run_predict_block(payload: PredictBlockTask) -> tuple[str, Any, TaskStats]:
    """One block of a collection predict / evaluate pass.

    Serves the payload block through the shipped fitted state, which
    need not carry the block's name (a ``model_block`` fallback).
    Graphs computed here cover only the functions the combiner consults
    (:meth:`~repro.core.model.ResolverModel.scoring_functions`), and are
    scored through a cache of the task's own — a collection pass never
    touches a long-lived model's cache.
    """
    from repro.core.model import ResolverModel

    started = time.perf_counter()
    cache = SimilarityCache()
    model = ResolverModel(config=payload.config, blocks={})
    graphs = block_graphs(payload.block, payload.graphs, payload.pipeline,
                          model.scoring_functions(payload.fitted), cache,
                          features=payload.features,
                          backend=payload.config.backend,
                          mask=payload.mask)
    serve = model.evaluate_fitted if payload.evaluate else model.predict_fitted
    result = serve(payload.fitted, payload.block, graphs=graphs)
    stats = _task_stats(payload.block.query_name, started, cache)
    return (payload.block.query_name, result, stats)


#: Task kinds dispatchable through a shard (name -> worker body).
TASK_KINDS: dict[str, Callable[[Any], Any]] = {
    "prepare": run_prepare_block,
    "fit": run_fit_block,
    "predict": run_predict_block,
}


@dataclass(frozen=True)
class FeaturePlaneSlot:
    """Marks a payload's ``features`` as living in the shard's plane
    region; workers rebind it to a zero-copy ``PlaneFeatureMap``."""

    header: Any


@dataclass(frozen=True)
class GraphPlaneSlot:
    """Marks a payload's ``graphs`` as living in the shard's plane
    region; workers rebind it to a zero-copy ``GraphPlaneMap``."""

    header: Any


@dataclass(frozen=True)
class BlockShard:
    """One fan-out's full payload list, published as a single shard.

    Pickling the list in one buffer lets the pickle memo deduplicate
    everything the payloads share — the config, the extraction pipeline,
    the similarity functions — so shared state crosses the process
    boundary exactly once per run instead of once per block.  On the
    plane path the payloads here are *skeletons*: their feature dicts
    and graphs are plane slots, and the numeric bulk never enters the
    pickle stream at all.
    """

    kind: str
    payloads: tuple

    def _bind_planes(self, view, base: int) -> "BlockShard":
        """Rebind plane slots to views over the attached segment.

        Called by :func:`~repro.runtime.shards.load_shard` right after
        the residual unpickles; a shard without slots returns itself.
        """
        if not any(isinstance(getattr(payload, "features", None),
                              FeaturePlaneSlot)
                   or isinstance(getattr(payload, "graphs", None),
                                 GraphPlaneSlot)
                   for payload in self.payloads):
            return self
        from repro.runtime import planes
        buffer = planes.PlaneBuffer(view, base)
        bound = []
        for payload in self.payloads:
            patch = {}
            features = getattr(payload, "features", None)
            if isinstance(features, FeaturePlaneSlot):
                patch["features"] = planes.PlaneFeatureMap(
                    planes.FeaturePlanes(features.header, buffer))
            graphs = getattr(payload, "graphs", None)
            if isinstance(graphs, GraphPlaneSlot):
                patch["graphs"] = planes.GraphPlaneMap(graphs.header, buffer)
            bound.append(replace(payload, **patch) if patch else payload)
        return BlockShard(kind=self.kind, payloads=tuple(bound))


def _payload_plane_eligible(payload) -> tuple[bool, bool]:
    """(features eligible, graphs eligible) for one payload."""
    from repro.runtime import planes
    return (planes.features_eligible(getattr(payload, "features", None)),
            planes.graphs_eligible(getattr(payload, "graphs", None)))


def _pack_plane_payloads(payloads: Sequence[Any]):
    """Strip eligible numeric bulk into a plane writer.

    Returns ``(skeleton payloads, PlaneWriter | None, planed count,
    fallback count)`` — *fallback* counts eligible fields whose encoding
    failed and therefore stayed in the pickle stream (should be zero;
    the CI bench validation asserts it).
    """
    from repro.runtime import planes
    writer = planes.PlaneWriter()
    skeletons = []
    planed = fallback = 0
    for payload in payloads:
        features_ok, graphs_ok = _payload_plane_eligible(payload)
        patch = {}
        if features_ok:
            try:
                patch["features"] = FeaturePlaneSlot(planes.encode_features(
                    payload.features, writer))
            except planes.PlaneEncodeError:
                fallback += 1
        if graphs_ok:
            try:
                patch["graphs"] = GraphPlaneSlot(planes.encode_graphs(
                    payload.graphs, writer))
            except planes.PlaneEncodeError:
                fallback += 1
        if patch:
            planed += len(patch)
            skeletons.append(replace(payload, **patch))
        else:
            skeletons.append(payload)
    if not planed:
        return list(payloads), None, 0, fallback
    return skeletons, writer, planed, fallback


@dataclass(frozen=True)
class ShardedBlockTask:
    """A few-dozen-byte descriptor of one task inside a published shard."""

    handle: ShardHandle
    index: int


def run_sharded_block(task: ShardedBlockTask) -> Any:
    """Worker body: resolve the shard (cached per process) and run one task.

    The time spent resolving the shard — attach, residual unpickle,
    plane binding; near zero on cache hits — is recorded on the task's
    :class:`TaskStats` so the scheduling side can report it.
    """
    started = time.perf_counter()
    shard: BlockShard = load_shard(task.handle)
    attach_seconds = time.perf_counter() - started
    result = TASK_KINDS[shard.kind](shard.payloads[task.index])
    stats = result[-1] if isinstance(result, tuple) and result else None
    if isinstance(stats, TaskStats):
        stats.attach_unpickle_seconds = attach_seconds
    return result


def run_block_tasks(executor: "BlockExecutor", kind: str,
                    payloads: Sequence[Any],
                    weights: Sequence[int] | None = None,
                    stats: "RunStats | None" = None) -> list[Any]:
    """Run one fan-out of block tasks, results in payload order.

    The scheduling entry point of every collection pass.  Serial
    executors run the task bodies inline, in payload order — no shard is
    published, so degraded and single-payload paths never touch shared
    memory.  Parallel executors
    get the shard treatment: each payload's numeric bulk is packed into
    raw plane arrays (see :func:`planes_enabled`), the skeleton payload
    list is published once (:class:`BlockShard`), tasks shrink to
    :class:`ShardedBlockTask` descriptors, and ``weights`` (per-payload
    cost, e.g. block page counts) drives largest-first chunk packing.
    Results are identical to ``executor.run(task, payloads)`` in value
    and order.

    ``stats`` (a :class:`~repro.runtime.stats.RunStats`) receives the
    publication accounting: shard bytes, pickled residual bytes, plane
    bytes, and plane/fallback payload counts.
    """
    task = TASK_KINDS[kind]
    if len(payloads) <= 1 or executor.is_serial:
        return executor.run(task, payloads, weights=weights)
    writer = None
    planed = fallback = 0
    shipped = tuple(payloads)
    if planes_enabled():
        skeletons, writer, planed, fallback = _pack_plane_payloads(payloads)
        shipped = tuple(skeletons)
    with ShardStore() as store:
        handle = store.publish(BlockShard(kind=kind, payloads=shipped),
                               label=kind,
                               planes=writer,
                               local_payload=BlockShard(
                                   kind=kind, payloads=tuple(payloads)))
        if stats is not None:
            stats.shard_bytes_published += handle.nbytes
            stats.pickled_bytes += handle.pickled_bytes
            stats.plane_bytes += handle.plane_bytes
            stats.plane_payloads += planed
            stats.plane_fallback_payloads += fallback
        sharded = [ShardedBlockTask(handle=handle, index=index)
                   for index in range(len(payloads))]
        return executor.run(run_sharded_block, sharded, weights=weights)
