"""Picklable block-level task functions for the executors.

Process-pool workers can only run module-level functions over picklable
payloads, so every parallelizable pass (context preparation, fitting,
prediction, evaluation) has its payload dataclass and task function here.
Each task measures itself and returns a
:class:`~repro.runtime.stats.TaskStats` alongside its result — worker
processes cannot touch the parent's caches or counters.

``repro.core`` modules are imported inside the task bodies: the core
imports the runtime package, so importing it back at module level would
cycle.

Fan-outs should go through :func:`run_block_tasks` rather than handing
payload lists to ``executor.run`` directly: for parallel executors it
publishes the whole payload list **once** as a shared-memory shard and
dispatches :class:`ShardedBlockTask` descriptors of a few dozen bytes;
for serial executors it degrades to the plain loop with zero shard
overhead.  Before publishing, each payload's numeric bulk — eager
feature dicts and precomputed graphs — is stripped out of the pickle
stream and written into the segment as raw columnar planes
(:mod:`repro.runtime.planes`); the pickled residual carries only slot
markers (:class:`FeaturePlaneSlot` / :class:`GraphPlaneSlot`) that
workers rebind to zero-copy views on attach.  ``REPRO_SHARD_PLANES=0``
disables the stripping (everything pickles, as before PR 10), which the
runtime benchmark uses to measure the zero-copy speedup.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.corpus.documents import NameCollection
from repro.runtime.batch import batched_similarity_graphs
from repro.runtime.cache import SimilarityCache
from repro.runtime.shards import ShardHandle, ShardStore, load_shard
from repro.runtime.stats import TaskStats
from repro.similarity.base import SimilarityFunction

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


def _block_graphs(
    block: NameCollection,
    graphs: dict[str, "WeightedPairGraph"] | None,
    pipeline: "ExtractionPipeline | None",
    functions: list[SimilarityFunction],
    cache: SimilarityCache,
    features: dict | None = None,
    backend: str | None = None,
    mask: frozenset | None = None,
) -> dict[str, "WeightedPairGraph"]:
    """Shipped graphs, or a fresh cached computation in this worker."""
    if graphs is not None:
        return graphs
    if features is None:
        if pipeline is None:
            raise ValueError(
                f"block {block.query_name!r} has neither precomputed graphs, "
                f"features, nor a pipeline to extract with")
        features = cache.features_for(block, pipeline.extract_block)
    return batched_similarity_graphs(block, features, functions, cache=cache,
                                     backend=backend, mask=mask)


def _task_stats(query_name: str, seconds: float,
                cache: SimilarityCache) -> TaskStats:
    snapshot = cache.stats()
    return TaskStats(
        query_name=query_name,
        seconds=seconds,
        pairs_scored=snapshot.pair_misses,
        cache_hits=snapshot.pair_hits,
        cache_misses=snapshot.pair_misses,
    )


@dataclass(frozen=True)
class PrepareBlockTask:
    """Extract one block and compute its similarity graphs."""

    pipeline: "ExtractionPipeline"
    block: NameCollection
    functions: tuple[SimilarityFunction, ...]
    #: scoring-backend name (``None``: the worker's ambient default).
    backend: str | None = None


def run_prepare_block(payload: PrepareBlockTask) -> tuple[str, Any, Any, TaskStats]:
    """Worker body for :meth:`ExperimentContext.prepare` fan-out."""
    started = time.perf_counter()
    cache = SimilarityCache()
    features = cache.features_for(payload.block,
                                  payload.pipeline.extract_block)
    graphs = batched_similarity_graphs(payload.block, features,
                                       list(payload.functions), cache=cache,
                                       backend=payload.backend)
    stats = _task_stats(payload.block.query_name,
                        time.perf_counter() - started, cache)
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
    """Worker body for parallel :meth:`EntityResolver.fit`.

    The fit-time layer cache is dropped before returning: the hand-off
    only pays off inside one process, and shipping the quadratic graphs
    back to the parent would dwarf the fitted state.
    """
    from repro.core.resolver import EntityResolver

    started = time.perf_counter()
    cache = SimilarityCache()
    resolver = EntityResolver(payload.config)
    graphs = _block_graphs(payload.block, payload.graphs, payload.pipeline,
                           resolver.functions, cache,
                           features=payload.features,
                           backend=payload.config.backend,
                           mask=payload.mask)
    fitted = resolver.fit_block(payload.block, graphs,
                                training_seed=payload.training_seed)
    fitted._layer_cache = None
    stats = _task_stats(payload.block.query_name,
                        time.perf_counter() - started, cache)
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
    """Worker body for parallel predict/evaluate over a collection.

    Rebuilds a single-block :class:`~repro.core.model.ResolverModel` in
    the worker and serves the payload block through the shipped fitted
    state (``model_block`` handles serving under a different name).
    Graphs computed here cover only the functions the combiner consults
    (see :meth:`~repro.core.model.ResolverModel.predict_fitted`).
    """
    from repro.core.model import ResolverModel

    started = time.perf_counter()
    model = ResolverModel(config=payload.config,
                          blocks={payload.fitted.query_name: payload.fitted},
                          pipeline=payload.pipeline)
    kwargs = {"graphs": payload.graphs,
              "model_block": payload.fitted.query_name,
              "mask": payload.mask}
    if payload.graphs is None and payload.features is not None:
        kwargs["features"] = payload.features
    if payload.evaluate:
        result = model.evaluate_block(payload.block, **kwargs)
    else:
        result = model.predict_block(payload.block, **kwargs)
    stats = _task_stats(payload.block.query_name,
                        time.perf_counter() - started,
                        model._similarity_cache)
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

    The scheduling entry point stages should use.  Serial executors run
    the plain loop directly — no shard is published, so degraded and
    single-payload paths never touch shared memory.  Parallel executors
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
