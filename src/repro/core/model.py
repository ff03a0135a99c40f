"""Fitted resolver models — the serve side of the fit → predict split.

:meth:`repro.core.resolver.EntityResolver.fit` consumes ground-truth
labels once and produces a :class:`ResolverModel`: the fitted
per-(function, criterion) decisions, their accuracy estimates, and the
combiner/clusterer parameters of every block.  The model then serves
*unlabeled* pages — :meth:`ResolverModel.predict` never reads
``person_id`` — and round-trips through JSON with :meth:`ResolverModel.save`
/ :meth:`ResolverModel.load`, so the expensive learning step runs once and
the model is reused across processes.

Evaluation against ground truth is a separate, explicit path
(:meth:`ResolverModel.evaluate`).
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path

from repro.blocking.base import block_collection
from repro.core.clusterers import cluster_combination
from repro.core.combination import (
    CombinationResult,
    DecisionLayer,
    build_combiner,
    consulted_function_names,
    undecided_layer,
)
from repro.core.config import ResolverConfig
from repro.core.decisions import FittedDecision
from repro.core.sweeps import BlockSweep
from repro.corpus.documents import (
    DocumentCollection,
    NameCollection,
    find_by_query_name,
)
from repro.corpus.vocabulary import draw_categories
from repro.extraction.features import PageFeatures
from repro.extraction.pipeline import GAZETTEERS, ExtractionPipeline
from repro.graph.entity_graph import WeightedPairGraph
from repro.metrics.clusterings import Clustering, clustering_from_assignments
from repro.metrics.report import MetricReport, evaluate_clustering, mean_report
from repro.runtime.executor import BlockExecutor, executor_from_config
from repro.runtime.stats import RunStats, clock
from repro.runtime.tasks import (
    PredictBlockTask,
    block_graphs,
    run_pass,
    run_predict_block,
)
from repro.similarity.base import SimilarityFunction
from repro.similarity.functions import functions_subset

#: On-disk model format version.  Version 1 files also carry runtime
#: config keys and per-layer thresholds; :meth:`ResolverModel.load`
#: reads them and ignores those keys.
MODEL_FORMAT_VERSION = 2


def resolve_extraction_pipeline(
    collection: DocumentCollection,
    pipeline: ExtractionPipeline | None = None,
) -> ExtractionPipeline:
    """The pipeline to extract ``collection`` with.

    Raises:
        ValueError: when no pipeline was supplied and the collection
            carries no vocabulary metadata to rebuild one from.
    """
    if pipeline is not None:
        return pipeline
    seed = collection.metadata.get("vocabulary_seed")
    if seed is None:
        raise ValueError(
            "collection has no vocabulary metadata; pass an ExtractionPipeline")
    # Scale corpora record non-default lexicon sizes (see
    # repro.corpus.vocabulary.vocabulary_sizes) so the exact gazetteers
    # are reconstructible from disk; only those categories are drawn.
    sizes = collection.metadata.get("vocabulary_sizes") or {}
    gazetteers = draw_categories(
        int(seed), GAZETTEERS,
        {key: int(value) for key, value in sizes.items()})
    return ExtractionPipeline.from_gazetteers(
        gazetteers, query_names=collection.query_names())


def ship_blocks(
    collection: DocumentCollection,
    blocks: Sequence[NameCollection],
    masks: dict[str, frozenset],
    config: ResolverConfig,
    pipeline: ExtractionPipeline | None,
    graphs_by_name: dict[str, dict[str, WeightedPairGraph]] | None,
) -> tuple[list[dict], ExtractionPipeline | None]:
    """What every collection task ships for each of ``blocks``.

    One dict of task fields per block: the config, the block, its
    candidate mask, and either the caller's precomputed graphs or the
    extraction pipeline to compute them with.  The pipeline is resolved
    from ``collection`` metadata only when some block has no graphs, so
    graphs covering every block never need one.  Also returns that
    pipeline (``None`` when nothing needed it), for the fitted model.

    Raises:
        ValueError: when a block needs extracting and no pipeline was
            given and ``collection`` has no vocabulary metadata.
    """
    shipped = []
    for block in blocks:
        graphs = (graphs_by_name or {}).get(block.query_name)
        if graphs is None and pipeline is None:
            pipeline = resolve_extraction_pipeline(collection)
        shipped.append(dict(config=config, block=block, graphs=graphs,
                            pipeline=None if graphs is not None else pipeline,
                            mask=masks.get(block.query_name)))
    return shipped, pipeline


@dataclass(frozen=True)
class FittedLayer:
    """One fitted (function, criterion) decision, detached from any graph.

    This is the persistent core of a :class:`DecisionLayer`: everything
    needed to re-decide arbitrary similarity values, but none of the
    block-specific edges — those are recomputed at predict time.
    """

    function_name: str
    criterion_name: str
    fitted: FittedDecision
    graph_accuracy: float

    @property
    def label(self) -> str:
        return f"{self.function_name}/{self.criterion_name}"

    @property
    def training_accuracy(self) -> float:
        return self.fitted.training_accuracy

    def to_dict(self) -> dict[str, object]:
        return {
            "function_name": self.function_name,
            "criterion_name": self.criterion_name,
            "graph_accuracy": self.graph_accuracy,
            "fitted": self.fitted.to_dict(),
        }

    @classmethod
    def from_dict(cls, payload: dict[str, object]) -> "FittedLayer":
        return cls(
            function_name=str(payload["function_name"]),
            criterion_name=str(payload["criterion_name"]),
            graph_accuracy=float(payload["graph_accuracy"]),
            fitted=FittedDecision.from_dict(payload["fitted"]),
        )


@dataclass
class FittedBlock:
    """Everything fitting learned for one name's block.

    Attributes:
        query_name: the block the state was fitted on.
        layers: fitted decisions in (function-outer, criterion-inner)
            order — the same order :meth:`EntityResolver.build_layers`
            produces, which combiners rely on for determinism.
        combiner_params: the combiner's :meth:`~Combiner.fit_params`
            output (e.g. the chosen layer, the learned combination
            threshold).
        n_training: training-sample size, for diagnostics.
    """

    query_name: str
    layers: list[FittedLayer]
    combiner_params: dict[str, object] = field(default_factory=dict)
    n_training: int = 0

    def __post_init__(self) -> None:
        # Decision layers are a pure function of (fitted decisions,
        # similarity graphs); fitting on caller-supplied graphs seeds
        # this one-shot hand-off so an immediate predict pass over the
        # same graphs (the experiment runner) applies them once.
        # Identity-keyed with a strong reference — a recycled id can
        # never alias a different graphs dict — and *consumed* on first
        # use, so a model kept alive for serving does not pin the
        # training dataset's quadratic similarity graphs in memory.
        self._layer_cache: tuple[dict, list[DecisionLayer]] | None = None

    def __getstate__(self) -> dict[str, object]:
        # The hand-off holds the block's graphs and only ever matches by
        # identity, so it never crosses a process boundary (or a copy).
        return {**self.__dict__, "_layer_cache": None}

    def decision_layers(
        self, consulted: Sequence[FittedLayer],
        graphs: dict[str, WeightedPairGraph],
    ) -> list[DecisionLayer]:
        """Decision layers of the ``consulted`` fitted layers over
        ``graphs`` (consumes the fit-time cache)."""
        cache, self._layer_cache = self._layer_cache, None
        if cache is not None and cache[0] is graphs:
            cached = {layer.label: layer for layer in cache[1]}
            return [cached[layer.label] for layer in consulted]
        return build_decision_layers(consulted, graphs)

    def layer_accuracies(self) -> dict[str, float]:
        """Per-layer training accuracy, keyed by layer label."""
        return {layer.label: layer.training_accuracy for layer in self.layers}

    def to_dict(self) -> dict[str, object]:
        return {
            "query_name": self.query_name,
            "n_training": self.n_training,
            "combiner_params": self.combiner_params,
            "layers": [layer.to_dict() for layer in self.layers],
        }

    @classmethod
    def from_dict(cls, payload: dict[str, object]) -> "FittedBlock":
        return cls(
            query_name=str(payload["query_name"]),
            layers=[FittedLayer.from_dict(entry)
                    for entry in payload["layers"]],
            combiner_params=dict(payload["combiner_params"]),
            n_training=int(payload["n_training"]),
        )


def build_decision_layers(
    fitted_layers: Sequence[FittedLayer],
    graphs: dict[str, WeightedPairGraph],
) -> list[DecisionLayer]:
    """Apply fitted decisions to similarity graphs, yielding decision layers.

    This is the label-free half of :meth:`EntityResolver.build_layers`:
    edges and (deferred) probabilities come from the stored fitted
    decisions, and the accuracy estimates are the stored training-time
    values.  ``graphs`` need only cover the functions ``fitted_layers``
    name; output order matches ``fitted_layers`` exactly.
    """
    layers = [undecided_layer(layer.function_name, layer.criterion_name,
                              layer.fitted, graphs[layer.function_name],
                              graph_accuracy=layer.graph_accuracy)
              for layer in fitted_layers]
    BlockSweep().decide(layers)
    return layers


@dataclass
class BlockPrediction:
    """Predictions-only resolution of one block (no ground truth read)."""

    query_name: str
    predicted: Clustering
    combination: CombinationResult
    layer_accuracies: dict[str, float] = field(default_factory=dict)

    @property
    def chosen_layer(self) -> str | None:
        """Winning layer under best-graph selection (else ``None``)."""
        return self.combination.chosen_layer

    def n_entities(self) -> int:
        return len(self.predicted)


@dataclass
class CollectionPrediction:
    """Predictions for a whole dataset (one entry per ambiguous name).

    Attributes:
        stats: the engine's :class:`~repro.runtime.stats.RunStats` for the
            pass that produced these predictions (``None`` for results
            assembled outside the collection paths).
    """

    dataset: str
    blocks: list[BlockPrediction]
    stats: RunStats | None = None

    def __post_init__(self) -> None:
        self._index: tuple[int, dict[str, int]] | None = None

    def by_name(self, query_name: str) -> BlockPrediction:
        """Prediction for one name (lazy, hit-verified first-match name→block index).

        Raises:
            KeyError: if the name is absent.
        """
        return find_by_query_name(self, self.blocks, query_name)

    def n_entities(self) -> int:
        """Total predicted entity count across all names."""
        return sum(block.n_entities() for block in self.blocks)


@dataclass
class BlockResolution:
    """Resolution output and diagnostics for one name's block."""

    query_name: str
    predicted: Clustering
    truth: Clustering
    report: MetricReport
    combination: CombinationResult
    layer_accuracies: dict[str, float] = field(default_factory=dict)

    @property
    def chosen_layer(self) -> str | None:
        """Winning layer under best-graph selection (else ``None``)."""
        return self.combination.chosen_layer


@dataclass
class CollectionResolution:
    """Resolution of a whole dataset (one entry per ambiguous name).

    Attributes:
        stats: the engine's :class:`~repro.runtime.stats.RunStats` for the
            pass that produced these resolutions (``None`` for results
            assembled outside the collection paths).
    """

    dataset: str
    blocks: list[BlockResolution]
    stats: RunStats | None = None

    def __post_init__(self) -> None:
        self._index: tuple[int, dict[str, int]] | None = None

    def mean_report(self) -> MetricReport:
        """Macro-average of the per-name metric reports."""
        return mean_report([block.report for block in self.blocks])

    def by_name(self, query_name: str) -> BlockResolution:
        """Result for one name (lazy, hit-verified first-match name→block index).

        Raises:
            KeyError: if the name is absent.
        """
        return find_by_query_name(self, self.blocks, query_name)


class ResolverModel:
    """A fitted entity-resolution model, ready to serve unlabeled pages.

    The model is the serve-side artifact of a four-stage lifecycle:

    1. **fit** — :meth:`EntityResolver.fit` consumes ground-truth labels
       once and returns a model holding one :class:`FittedBlock` per
       ambiguous name plus the configuration fitting ran under.
    2. **save / load** — :meth:`save` writes the fitted state as a single
       JSON document; :meth:`load` rebuilds it in any process.  Custom
       registry backends named by the stored config (combiner, clusterer,
       similarity functions, blocker) must have their modules imported
       before :meth:`load` — see :mod:`repro.core.registry` for the
       plugin walkthrough.  The extraction pipeline is deliberately *not*
       serialized: re-supply it at load time, or rely on collection
       vocabulary metadata.  Nor is the schedule: a loaded model's
       config is serial unless ``REPRO_WORKERS`` or an ``executor=``
       argument says otherwise.
    3. **predict** — :meth:`predict` (and :meth:`predict_block` /
       :meth:`predict_collection`) resolves pages *without reading
       labels*; ``person_id`` may be absent.  Collection passes are
       scheduled by the runtime engine: the config's executor (or an
       explicit ``executor=`` argument) runs one task per block, and the
       resulting :class:`~repro.runtime.stats.RunStats` is attached to
       the returned collection result.  Serial and parallel execution
       run the same task body, so predictions are bit-identical at fixed
       seeds.
    4. **evaluate** — :meth:`evaluate` predicts and then scores against
       ground truth (which must be present); it shares every serving code
       path with predict, so reported metrics measure exactly what
       serving would produce.

    A long-lived serving process should call :meth:`release_fit_caches`
    after fit-and-predict bursts: it drops the fit-time layer hand-off's
    quadratic per-block state (the collection paths do this
    automatically).

    Args:
        config: the resolver configuration fitting ran under.
        blocks: fitted state per query name.
        pipeline: optional extraction pipeline for predicting from raw
            pages (not serialized — re-supply it after :meth:`load`, or
            rely on collection vocabulary metadata).
    """

    def __init__(self, config: ResolverConfig,
                 blocks: dict[str, FittedBlock],
                 pipeline: ExtractionPipeline | None = None):
        self.config = config
        self.blocks = dict(blocks)
        self.pipeline = pipeline
        self._functions = functions_subset(config.function_names)
        self._combiner = build_combiner(config.combiner)
        #: RunStats of the fit pass that produced this model (set by
        #: collection fitting; None for hand-assembled or loaded models).
        self.fit_stats: RunStats | None = None

    def block_names(self) -> list[str]:
        """Names the model holds fitted state for, in fit order."""
        return list(self.blocks)

    def release_fit_caches(self) -> None:
        """Drop every block's fit-time layer cache.

        Fitting on caller-supplied graphs seeds a one-shot cache per
        block so an immediate predict pass over the same graphs reuses
        the fit-time layers; it is quadratic in block size.  The
        collection predict/evaluate paths call this afterwards so a
        long-lived process does not retain per-block state for blocks it
        already served.  Call it yourself when keeping a model fitted on
        supplied graphs alive without predicting.
        """
        for fitted in self.blocks.values():
            fitted._layer_cache = None

    def consulted_layers(self, fitted: FittedBlock) -> list[FittedLayer]:
        """The fitted layers the model's combiner reads for ``fitted``
        (:meth:`Combiner.consulted_layers` over the stored parameters)."""
        return self._combiner.consulted_layers(fitted.layers,
                                               fitted.combiner_params)

    def scoring_functions(self,
                          fitted: FittedBlock) -> list[SimilarityFunction]:
        """The similarity functions a label-free pass over ``fitted``
        needs: those of the model's battery that a consulted layer
        decides over."""
        names = set(consulted_function_names(self.consulted_layers(fitted)))
        return [function for function in self._functions
                if function.name in names]

    def __contains__(self, query_name: object) -> bool:
        return query_name in self.blocks

    def __repr__(self) -> str:
        return (f"ResolverModel({len(self.blocks)} blocks, "
                f"combiner={self.config.combiner!r}, "
                f"clusterer={self.config.clusterer!r})")

    # -- predict ---------------------------------------------------------

    def predict(self, data: DocumentCollection | NameCollection, **kwargs):
        """Resolve unlabeled data.

        Dispatches to :meth:`predict_block` for a :class:`NameCollection`
        and :meth:`predict_collection` for a :class:`DocumentCollection`.
        Ground-truth labels, if present, are never read.
        """
        if isinstance(data, NameCollection):
            return self.predict_block(data, **kwargs)
        return self.predict_collection(data, **kwargs)

    def predict_block(
        self,
        block: NameCollection,
        pipeline: ExtractionPipeline | None = None,
        features: dict[str, PageFeatures] | None = None,
        graphs: dict[str, WeightedPairGraph] | None = None,
        model_block: str | None = None,
        mask: frozenset | None = None,
    ) -> BlockPrediction:
        """Resolve one block with the fitted machinery — labels unused.

        Args:
            block: the pages to resolve (``person_id`` may be ``None``).
            pipeline: extraction pipeline (defaults to the model's).
            features: precomputed page features (skips extraction).
            graphs: precomputed weighted graphs (skips extraction and
                similarity computation); must cover at least the
                functions the combiner consults.
            model_block: reuse the fitted state of a *different* name —
                how a model serves names it was never fitted on.
            mask: candidate-pair mask restricting similarity computation
                (``None``: dense); ignored when ``graphs`` are supplied.

        Raises:
            KeyError: when no fitted state exists for the block's name.
            ValueError: when no pipeline/features/graphs are available.
        """
        fitted = self._fitted_for(model_block or block.query_name)
        return self.predict_fitted(fitted, block, pipeline=pipeline,
                                   features=features, graphs=graphs,
                                   mask=mask)

    def predict_fitted(
        self,
        fitted: FittedBlock,
        block: NameCollection,
        pipeline: ExtractionPipeline | None = None,
        features: dict[str, PageFeatures] | None = None,
        graphs: dict[str, WeightedPairGraph] | None = None,
        mask: frozenset | None = None,
    ) -> BlockPrediction:
        """Resolve one block with explicitly supplied fitted state.

        The core of :meth:`predict_block`, exposed for custom schedulers
        that resolve fitted state themselves (a collection pass's predict
        task serves each block through this method).  The
        fitted state need not live in ``self.blocks``.  A candidate
        ``mask`` restricts the similarity computation when graphs are
        computed here (callers supplying ``graphs`` pre-masked pass
        none).

        Only what the combiner consults (:meth:`consulted_layers`) is
        scored and decided: under ``best_graph`` that is one similarity
        function and one layer, whatever the size of the fitted grid.
        ``layer_accuracies`` still reports every fitted layer.
        """
        if graphs is None:
            graphs = block_graphs(
                block, None, pipeline or self.pipeline,
                self.scoring_functions(fitted), features=features,
                backend=self.config.backend, mask=mask)

        layers = fitted.decision_layers(self.consulted_layers(fitted), graphs)
        combination = self._combiner.apply(layers, fitted.combiner_params)
        predicted = cluster_combination(
            self.config.clusterer, combination,
            seed=self.config.correlation_seed)
        return BlockPrediction(
            query_name=block.query_name,
            predicted=predicted,
            combination=combination,
            layer_accuracies=fitted.layer_accuracies(),
        )

    def predict_collection(
        self,
        collection: DocumentCollection,
        pipeline: ExtractionPipeline | None = None,
        graphs_by_name: dict[str, dict[str, WeightedPairGraph]] | None = None,
        model_block: str | None = None,
        executor: BlockExecutor | None = None,
    ) -> CollectionPrediction:
        """Resolve every block of an unlabeled dataset.

        The collection is blocked by the config's blocker, then served
        one predict task per block.  The extraction pipeline is resolved
        lazily: blocks covered by ``graphs_by_name`` never need one.
        Names the model was never fitted on fall back to
        ``model_block``'s fitted state when given (fitted names always
        use their own state).

        Blocks are scheduled through ``executor`` (default: the backend
        the model's config selects); parallel backends produce the same
        predictions as serial execution, and the pass's
        :class:`~repro.runtime.stats.RunStats` is attached to the
        result.

        Raises:
            KeyError: when a block has no fitted state and no
                ``model_block`` — before any block is served.
        """
        blocks, stats = self._run_collection(
            collection, pipeline, graphs_by_name, model_block, executor,
            evaluate=False)
        return CollectionPrediction(dataset=collection.name, blocks=blocks,
                                    stats=stats)

    # -- evaluate --------------------------------------------------------

    def evaluate(self, data: DocumentCollection | NameCollection, **kwargs):
        """Predict, then score against ground truth (labels required).

        Dispatches like :meth:`predict`; returns :class:`BlockResolution`
        or :class:`CollectionResolution`.
        """
        if isinstance(data, NameCollection):
            return self.evaluate_block(data, **kwargs)
        return self.evaluate_collection(data, **kwargs)

    def evaluate_block(self, block: NameCollection,
                       **kwargs) -> BlockResolution:
        """Predict one labeled block and score the prediction.

        Raises:
            ValueError: when any page lacks a ground-truth label.
        """
        prediction = self.predict_block(block, **kwargs)
        return self._score_prediction(block, prediction)

    def evaluate_fitted(self, fitted: FittedBlock, block: NameCollection,
                        **kwargs) -> BlockResolution:
        """Predict with explicit fitted state, then score the prediction.

        The evaluate counterpart of :meth:`predict_fitted`.

        Raises:
            ValueError: when any page lacks a ground-truth label.
        """
        prediction = self.predict_fitted(fitted, block, **kwargs)
        return self._score_prediction(block, prediction)

    def _score_prediction(self, block: NameCollection,
                          prediction: BlockPrediction) -> BlockResolution:
        truth = clustering_from_assignments(block.ground_truth())
        report = evaluate_clustering(prediction.predicted, truth)
        return BlockResolution(
            query_name=block.query_name,
            predicted=prediction.predicted,
            truth=truth,
            report=report,
            combination=prediction.combination,
            layer_accuracies=prediction.layer_accuracies,
        )

    def evaluate_collection(
        self,
        collection: DocumentCollection,
        pipeline: ExtractionPipeline | None = None,
        graphs_by_name: dict[str, dict[str, WeightedPairGraph]] | None = None,
        model_block: str | None = None,
        executor: BlockExecutor | None = None,
    ) -> CollectionResolution:
        """Predict a labeled dataset and score every block.

        ``model_block`` serves unfitted names and ``executor`` schedules
        blocks, as in :meth:`predict_collection`.
        """
        blocks, stats = self._run_collection(
            collection, pipeline, graphs_by_name, model_block, executor,
            evaluate=True)
        return CollectionResolution(dataset=collection.name, blocks=blocks,
                                    stats=stats)

    # -- collection scheduling -------------------------------------------

    def _run_collection(
        self,
        collection: DocumentCollection,
        pipeline: ExtractionPipeline | None,
        graphs_by_name: dict[str, dict[str, WeightedPairGraph]] | None,
        model_block: str | None,
        executor: BlockExecutor | None,
        evaluate: bool,
    ) -> tuple[list, RunStats]:
        """Serve every block; results in block order, and the pass's stats.

        Every block's fitted state (with the ``model_block`` fallback)
        is resolved before the fan-out, so a missing one fails before
        any block is served.  The fitted blocks ship as they are:
        pickling leaves a fit-time hand-off behind, and the inline
        schedule gets to consume it.
        """
        started = clock()
        blocks, masks = block_collection(collection, self.config.blocker)
        fitted = [self._fitted_for(
            block.query_name if block.query_name in self.blocks
            else model_block or block.query_name) for block in blocks]
        shipped, _ = ship_blocks(collection, blocks, masks, self.config,
                                 pipeline or self.pipeline, graphs_by_name)
        payloads = [PredictBlockTask(fitted=state, evaluate=evaluate,
                                     **fields)
                    for state, fields in zip(fitted, shipped)]
        results, stats = run_pass(
            executor or executor_from_config(self.config), run_predict_block,
            "evaluate" if evaluate else "predict", payloads,
            started=started, close=executor is None,
            backend=self.config.backend)
        self.release_fit_caches()
        return [result for _, result in results], stats

    # -- persistence -----------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Write the fitted model to ``path`` as a single JSON document."""
        payload = {
            "format_version": MODEL_FORMAT_VERSION,
            "config": self.config.to_dict(),
            "blocks": {name: fitted.to_dict()
                       for name, fitted in self.blocks.items()},
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)

    @classmethod
    def load(cls, path: str | Path,
             pipeline: ExtractionPipeline | None = None) -> "ResolverModel":
        """Read a model previously written by :meth:`save`.

        Custom registry backends referenced by the stored config must be
        registered (their modules imported) before loading.

        Raises:
            ValueError: for a file that is not JSON (e.g. truncated),
                incompatible format versions, or backends the current
                process has not registered.
        """
        with open(path, encoding="utf-8") as handle:
            try:
                payload = json.load(handle)
            except json.JSONDecodeError as error:
                raise ValueError(
                    f"{path}: not a readable model file ({error})") from None
        version = payload.get("format_version")
        if version not in (1, MODEL_FORMAT_VERSION):
            raise ValueError(
                f"unsupported model format version: {version!r}")
        config = ResolverConfig.from_dict(payload["config"])
        blocks = {name: FittedBlock.from_dict(entry)
                  for name, entry in payload["blocks"].items()}
        return cls(config=config, blocks=blocks, pipeline=pipeline)

    # -- internals -------------------------------------------------------

    def _fitted_for(self, query_name: str) -> FittedBlock:
        try:
            return self.blocks[query_name]
        except KeyError:
            known = ", ".join(sorted(self.blocks)) or "<none>"
            raise KeyError(
                f"no fitted state for block {query_name!r}; fitted blocks "
                f"are: {known} (reuse one via model_block= / "
                f"--model-block)") from None
