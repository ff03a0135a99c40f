"""Algorithm 1 — the end-to-end entity-resolution procedure.

Per block (one ambiguous name):

1. compute the complete weighted graph ``G_w^fi`` for every similarity
   function (blocking means pairs are only formed within the block);
2. learn the decision criteria D_j from the training sample;
3. apply each criterion to get decision graphs ``G^i_Dj`` with accuracy
   estimates;
4. combine the layers into ``G_combined``;
5. cluster (via the clusterer registry: transitive closure, star or
   correlation clustering);
6. output the final partition.

The public API splits this into train and serve:
:meth:`EntityResolver.fit` runs steps 1–4's *learning* on labeled data and
returns a :class:`~repro.core.model.ResolverModel`, whose ``predict``
re-applies the fitted machinery to unlabeled pages and ``evaluate`` scores
predictions against ground truth.
"""

from __future__ import annotations

from repro.blocking.base import block_collection
from repro.core.combination import (
    DecisionLayer,
    build_combiner,
    undecided_layer,
)
from repro.core.config import ResolverConfig
from repro.core.decisions import build_criteria
from repro.core.labels import TrainingSample
from repro.core.model import (
    FittedBlock,
    FittedLayer,
    ResolverModel,
    resolve_extraction_pipeline,
    ship_blocks,
)
from repro.core.sweeps import BlockSweep
from repro.corpus.documents import DocumentCollection, NameCollection
from repro.extraction.features import PageFeatures
from repro.extraction.pipeline import ExtractionPipeline
from repro.graph.entity_graph import WeightedPairGraph
from repro.ml.sampling import sample_training_pairs
from repro.runtime.executor import BlockExecutor, executor_from_config
from repro.runtime.stats import clock
from repro.runtime.tasks import FitBlockTask, block_graphs, run_pass
from repro.similarity.functions import functions_subset

__all__ = ["EntityResolver"]


class EntityResolver:
    """The paper's entity-resolution framework, configured once, run often.

    Args:
        config: resolver configuration (see :class:`ResolverConfig`).
        pipeline: extraction pipeline; when omitted, one is rebuilt from
            the dataset's generator metadata (synthetic corpora record
            their vocabulary seed).
    """

    def __init__(self, config: ResolverConfig | None = None,
                 pipeline: ExtractionPipeline | None = None):
        self.config = config or ResolverConfig()
        self._pipeline = pipeline
        self._functions = functions_subset(self.config.function_names)
        self._criteria = build_criteria(self.config.criteria, k=self.config.region_k)
        self._combiner = build_combiner(self.config.combiner)

    @property
    def functions(self) -> list:
        """The configured similarity functions, in config order."""
        return list(self._functions)

    def pipeline_for(self, collection: DocumentCollection) -> ExtractionPipeline:
        """The extraction pipeline to use for ``collection``.

        Raises:
            ValueError: when no pipeline was supplied and the collection
                carries no vocabulary metadata to rebuild one from.
        """
        return resolve_extraction_pipeline(collection, self._pipeline)

    # -- fitting (the train side) ---------------------------------------

    def fit(
        self,
        data: DocumentCollection | NameCollection,
        training_seed: int = 0,
        pipeline: ExtractionPipeline | None = None,
        features: dict[str, PageFeatures] | None = None,
        graphs: dict[str, WeightedPairGraph] | None = None,
        graphs_by_name: dict[str, dict[str, WeightedPairGraph]] | None = None,
        executor: BlockExecutor | None = None,
    ) -> ResolverModel:
        """Learn decision criteria and combination parameters from labels.

        This is the only step that reads ground truth: per block it draws
        the training sample, fits every (function, criterion) decision
        layer, estimates layer accuracies, and freezes the combiner's
        learned parameters.  The returned
        :class:`~repro.core.model.ResolverModel` predicts without labels
        and serializes with ``save``/``load``.

        Collection fitting blocks the collection with the config's
        blocker (:func:`~repro.blocking.base.block_collection`), then
        fans one fit task per block out through the executor
        (:func:`~repro.runtime.tasks.run_pass`).

        Fitting on graphs the caller supplied (``graphs=`` /
        ``graphs_by_name=``) also seeds a one-shot per-block layer cache
        holding those graphs, so an immediate predict pass over the same
        graphs applies the decisions once; when keeping such a model
        alive and serving only selected blocks, call
        ``model.release_fit_caches()`` to drop the unconsumed ones.
        Blocks whose graphs fitting computed itself keep nothing.

        Args:
            data: a labeled dataset, or a single labeled block.
            training_seed: seed of the per-block training-sample draw.
            pipeline: extraction pipeline (resolved lazily from collection
                metadata when omitted; unused for blocks fully covered by
                precomputed graphs).
            features: precomputed features (single-block fitting only).
            graphs: precomputed weighted graphs (single-block fitting
                only).
            graphs_by_name: precomputed similarity graphs per query name
                (collection fitting only).
            executor: block executor scheduling per-block fitting for
                collections (default: the backend the config selects).
                Serial and parallel fitting produce identical models; the
                pass's :class:`~repro.runtime.stats.RunStats` lands on
                the returned model's ``fit_stats``.

        Raises:
            ValueError: when a block's similarity graphs cannot be
                computed for lack of a pipeline/features/graphs, or when
                a kwarg does not apply to the input type (``features``/
                ``graphs`` are single-block only, ``graphs_by_name`` is
                collection only).
        """
        if isinstance(data, NameCollection):
            if graphs_by_name is not None:
                raise ValueError(
                    "graphs_by_name applies to collection fitting; "
                    "pass graphs= for a single block")
            supplied = graphs is not None
            graphs = block_graphs(data, graphs, pipeline or self._pipeline,
                                  self._functions, features=features,
                                  backend=self.config.backend)
            fitted = self.fit_block(data, graphs, training_seed)
            if not supplied:
                fitted._layer_cache = None
            return ResolverModel(
                config=self.config,
                blocks={data.query_name: fitted},
                pipeline=pipeline or self._pipeline,
            )

        if features is not None or graphs is not None:
            raise ValueError(
                "features/graphs apply to single-block fitting; "
                "pass graphs_by_name= for a collection")
        started = clock()
        blocks, masks = block_collection(data, self.config.blocker)
        shipped, extraction = ship_blocks(
            data, blocks, masks, self.config, pipeline or self._pipeline,
            graphs_by_name)
        payloads = [FitBlockTask(training_seed=training_seed, **fields)
                    for fields in shipped]
        results, stats = run_pass(
            executor or executor_from_config(self.config), "fit", "fit",
            payloads, started=started, close=executor is None,
            backend=self.config.backend)
        model = ResolverModel(config=self.config, blocks=dict(results),
                              pipeline=extraction)
        model.fit_stats = stats
        return model

    def fit_block(self, block: NameCollection,
                  graphs: dict[str, WeightedPairGraph],
                  training_seed: int = 0) -> FittedBlock:
        """Fit one block: training sample → layers → combiner parameters.

        The unit of work the block executors schedule (see
        :mod:`repro.runtime.tasks`); exposed so custom schedulers can fit
        blocks independently and assemble their own
        :class:`~repro.core.model.ResolverModel`.
        """
        training = TrainingSample.from_pairs(sample_training_pairs(
            block,
            fraction=self.config.training_fraction,
            seed=training_seed,
            mode=self.config.sampling_mode,
        ))
        layers = self.build_layers(graphs, training)
        combination = self._combiner.combine(layers, training)
        fitted = FittedBlock(
            query_name=block.query_name,
            layers=[FittedLayer(
                function_name=layer.function_name,
                criterion_name=layer.criterion_name,
                fitted=layer.fitted,
                graph_accuracy=layer.graph_accuracy,
            ) for layer in layers],
            combiner_params=self._combiner.fit_params(combination),
            n_training=len(training),
        )
        # Fit-time layers are exactly what predict would rebuild over the
        # same graphs; seed the cache so fit → predict applies them once.
        fitted._layer_cache = (graphs, layers)
        return fitted

    def build_layers(self, graphs: dict[str, WeightedPairGraph],
                     training: TrainingSample) -> list[DecisionLayer]:
        """Fit every (function, criterion) decision layer.

        Exposed for experiments that inspect or recombine layers directly
        (Figure 1, the combiner ablation).  Every layer's edges are
        decided here — acc(G_Dj) over them is the selection signal — in
        one :class:`~repro.core.sweeps.BlockSweep` over the block's pair
        vectors, while per-pair probabilities are computed when first
        read; layer order stays function-outer, criterion-inner.
        """
        sweep = BlockSweep(training)
        layers: list[DecisionLayer] = []
        for function in self._functions:
            graph = graphs[function.name]
            labeled_values = sweep.labeled_values(graph)
            for criterion in self._criteria:
                layers.append(undecided_layer(
                    function.name, criterion.name,
                    criterion.fit(labeled_values), graph))
        sweep.decide(layers)
        return layers
