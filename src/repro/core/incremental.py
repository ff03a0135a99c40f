"""Incremental entity resolution.

The paper's motivating application — web people search — is a living
index: new pages for a name arrive continuously, and re-running the full
quadratic pipeline per page is wasteful.  ``IncrementalResolver`` adopts a
fitted :class:`~repro.core.model.ResolverModel` (or fits one itself from a
labeled initial block) and then assigns each new page in
O(existing pages × functions): it scores the new page against every
current entity with the *fitted* decision layers (no re-training) and
either joins the best-matching entity or founds a new one.

The incremental decision reuses whatever combiner the base configuration
chose: under best-graph selection the winning layer decides; under
(entropy-)weighted averaging the stored layer weights and learned
combination threshold decide.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.combination import build_combiner, consulted_function_names
from repro.core.config import ResolverConfig
from repro.graph.entity_graph import PairKey, pair_key
from repro.core.model import (
    FittedBlock,
    FittedLayer,
    ResolverModel,
)
from repro.core.resolver import EntityResolver
from repro.corpus.documents import NameCollection
from repro.extraction.features import PageFeatures
from repro.metrics.clusterings import Clustering
from repro.runtime.batch import batched_similarity_graphs
from repro.similarity.backends import resolve_backend
from repro.similarity.base import SimilarityFunction, require_covered
from repro.similarity.functions import function_by_name


#: Combiners whose stored parameters suffice to decide single links —
#: the modes the incremental request path (and ``ResolutionSession``)
#: can serve.
INCREMENTAL_COMBINERS = ("best_graph", "weighted_average")


@dataclass
class Assignment:
    """Outcome of adding one page incrementally."""

    doc_id: str
    cluster_index: int
    created_new_cluster: bool
    link_probability: float  # best cluster's mean link probability


@dataclass
class _FittedState:
    """Everything the fitted model provides that assignment needs.

    ``layers`` are the ones the combiner consults
    (:meth:`~repro.core.combination.Combiner.consulted_layers`) and
    ``functions`` the similarity functions those layers decide over.
    """

    layers: list[FittedLayer]
    functions: dict[str, SimilarityFunction]
    chosen_layer: FittedLayer | None  # best-graph mode
    combination_threshold: float | None  # weighted-average mode
    layer_weights: list[float] = field(default_factory=list)


class IncrementalResolver:
    """Adopt a fitted model once, then assign new pages without re-training.

    Args:
        config: resolver configuration for the initial fit.  Supported
            combiners: ``"best_graph"`` and ``"weighted_average"``.

    Raises:
        ValueError: for unsupported combiners.
    """

    def __init__(self, config: ResolverConfig | None = None):
        self.config = config or ResolverConfig()
        if self.config.combiner not in INCREMENTAL_COMBINERS:
            raise ValueError(
                f"incremental mode does not support combiner "
                f"{self.config.combiner!r}")
        # The request path scores one new page against every indexed
        # page through the config's scoring backend (one batched
        # one-vs-many call per similarity function); backends are
        # bit-identical, so assignments never depend on the choice.
        self._backend = resolve_backend(self.config.backend)
        self._combiner = build_combiner(self.config.combiner)
        self._state: _FittedState | None = None
        self._features: dict[str, PageFeatures] = {}
        self._clusters: list[set[str]] = []

    @classmethod
    def from_model(
        cls,
        model: ResolverModel,
        block: NameCollection,
        features: dict[str, PageFeatures],
        model_block: str | None = None,
        graphs: dict | None = None,
    ) -> "IncrementalResolver":
        """Serve from an already-fitted model — no labels consumed.

        The block is resolved once with ``model.predict`` to seed the
        entity index; subsequent :meth:`add_page` calls reuse the model's
        fitted layers.

        Args:
            model: a fitted resolver model (e.g. ``ResolverModel.load``).
            block: the initial page collection (labels not required).
            features: extracted features for every page of the block.
            model_block: reuse another name's fitted state (for names the
                model was never fitted on).
            graphs: precomputed similarity graphs for the block (at least
                the functions the combiner consults); skips the quadratic
                similarity step entirely.

        Raises:
            ValueError: for model combiners without incremental support.
            KeyError: when the model has no state for the block's name.
        """
        resolver = cls(model.config)
        prediction = model.predict_block(block, features=features,
                                         graphs=graphs,
                                         model_block=model_block)
        resolver._adopt(model.blocks[model_block or block.query_name],
                        features, prediction.predicted)
        return resolver

    @classmethod
    def from_fitted(
        cls,
        config: ResolverConfig,
        fitted: FittedBlock,
        features: dict[str, PageFeatures] | None = None,
        clusters: list[set[str]] | None = None,
    ) -> "IncrementalResolver":
        """Adopt fitted state directly, without a seeding prediction.

        Unlike :meth:`from_model` this never resolves an initial block:
        the entity index starts from ``clusters`` (empty by default) and
        every page arrives through :meth:`add_page`.  This is the
        request-path constructor
        :class:`~repro.pipeline.session.ResolutionSession` uses when the
        first page of a never-served name shows up.

        The combination machinery comes from the fitted block's stored
        ``combiner_params``: the chosen layer under best-graph selection
        (falling back to the highest stored graph accuracy when the
        stored winner is absent, matching
        :meth:`BestGraphSelector.apply`), the learned threshold under
        weighted averaging.

        Args:
            config: the configuration the state was fitted under.
            fitted: one block's fitted state (e.g. from a loaded model).
            features: features of the pages already in ``clusters``.
            clusters: initial entity partition over those pages.

        Raises:
            ValueError: for unsupported combiners.
        """
        resolver = cls(config)
        resolver._adopt(fitted, features or {}, clusters or [])
        return resolver

    @property
    def is_fitted(self) -> bool:
        return self._state is not None

    def clusters(self) -> Clustering:
        """The current entity partition.

        Raises:
            RuntimeError: before :meth:`fit`.
        """
        self._require_fitted()
        return Clustering(self._clusters)

    def fit(self, block: NameCollection,
            features: dict[str, PageFeatures],
            training_seed: int = 0) -> Clustering:
        """Fit on an initial *labeled* block and freeze the machinery.

        Convenience wrapper over ``EntityResolver.fit`` +
        :meth:`from_model` for callers that start from labels rather than
        a saved model.

        Args:
            block: the initial (labeled) page collection.
            features: extracted features for every page of the block.
            training_seed: training-sample seed.
        """
        resolver = EntityResolver(self.config)
        graphs = batched_similarity_graphs(
            block, features, resolver._functions,
            backend=self.config.backend)
        model = resolver.fit(block, training_seed=training_seed,
                             graphs=graphs)
        prediction = model.predict_block(block, graphs=graphs)
        self._adopt(model.blocks[block.query_name], features,
                    prediction.predicted)
        return prediction.predicted

    def _adopt(self, fitted: FittedBlock, features: dict[str, PageFeatures],
               clusters) -> None:
        """Freeze what the combiner consults of ``fitted``, and the
        initial partition."""
        layers = self._combiner.consulted_layers(fitted.layers,
                                                 fitted.combiner_params)
        best_graph = self.config.combiner == "best_graph"
        threshold = fitted.combiner_params.get("threshold")
        self._state = _FittedState(
            layers=layers,
            functions={name: function_by_name(name)
                       for name in consulted_function_names(layers)},
            chosen_layer=layers[0] if best_graph else None,
            combination_threshold=(float(threshold)
                                   if threshold is not None else None),
            layer_weights=([] if best_graph
                           else self._combiner.layer_weights(layers)),
        )
        require_covered(features.values(), self._state.functions.values())
        self._features = dict(features)
        self._clusters = [set(cluster) for cluster in clusters]

    def __contains__(self, doc_id: object) -> bool:
        """Whether a page with this doc id is in the entity index."""
        return doc_id in self._features

    def indexed_features(self) -> list[PageFeatures]:
        """Features of every indexed page, in the order they were added.

        :meth:`coalesced_pair_scores` scores a whole micro-batch of new
        pages against exactly this ordered set in one masked backend
        call; the add order fixes the scoring block's page positions, so
        it is part of the contract.
        """
        self._require_fitted()
        return list(self._features.values())

    def scoring_function_names(self) -> list[str]:
        """Similarity functions a link decision actually consults.

        The functions of the layers the combiner consults: best-graph
        selection decides with the chosen layer's function alone;
        weighted averaging folds every layer, so it needs the whole
        battery.  Batched scorers use this to avoid computing functions
        whose scores the combiner would ignore.
        """
        self._require_fitted()
        return list(self._state.functions)

    def link_probability(self, new: PageFeatures,
                         existing: PageFeatures) -> float:
        """Combined link probability of (new page, existing page).

        Raises:
            RuntimeError: before :meth:`fit`.
            ValueError: when either page's features leave out a field
                the consulted functions read.
        """
        self._require_fitted()
        require_covered((new, existing), self._state.functions.values())
        return self._pair_probabilities(new, [existing])[0]

    def _pair_probabilities(
        self, new: PageFeatures, existing: list[PageFeatures],
        scores: dict[str, dict[PairKey, float]] | None = None,
    ) -> list[float]:
        """Combined link probabilities of ``new`` against many pages.

        One batched :meth:`~repro.similarity.backends.ScoringBackend.
        pair_scores` call per similarity function (layers sharing a
        function reuse its scores — the values are pure per pair), then
        the combiner's stored parameters fold the per-layer
        probabilities exactly as the one-pair path always has.

        ``scores`` (``function name -> {pair_key: score}``) substitutes
        precomputed pair scores for the backend calls —
        :meth:`coalesced_pair_scores` scores a whole micro-batch in one
        masked pass and feeds the values through here.  Precomputed
        scores must be bit-identical to what ``pair_scores`` would
        return (the backends' masked block sweep guarantees this), so
        the fold below never knows the difference.
        """
        state = self._state
        if state.chosen_layer is not None:
            layer = state.chosen_layer
            function = state.functions[layer.function_name]
            link = layer.fitted.link_probability
            if scores is not None:
                table = scores[layer.function_name]
                return [link(table[pair_key(new.doc_id, other.doc_id)])
                        for other in existing]
            return [link(score)
                    for score in self._backend.pair_scores(function, new,
                                                           existing)]
        if scores is not None:
            scores_by_function = {
                name: [scores[name][pair_key(new.doc_id, other.doc_id)]
                       for other in existing]
                for name in state.functions}
        else:
            scores_by_function = {
                name: self._backend.pair_scores(function, new, existing)
                for name, function in state.functions.items()}
        total = sum(state.layer_weights)
        probabilities = []
        for index in range(len(existing)):
            numerator = 0.0
            for layer, weight in zip(state.layers, state.layer_weights):
                probability = layer.fitted.link_probability(
                    scores_by_function[layer.function_name][index])
                numerator += weight * probability
            probabilities.append(numerator / total)
        return probabilities

    def coalesced_pair_scores(
        self, new_features: list[PageFeatures],
    ) -> dict[str, dict[PairKey, float]] | None:
        """Pair scores for adding ``new_features`` in order, in one sweep.

        One masked block sweep (:meth:`~repro.similarity.backends.
        ScoringBackend.block_scores` with a candidate-pair mask) prepares
        every page's inputs — vector norms, parsed URLs, key sets — once
        per batch, where a chain of :meth:`add_page` calls re-derives
        them once per page.  Per similarity function the combiner
        consults, only the pairs that chain would request are computed:
        new page *k* against all indexed pages plus new pages
        ``0..k-1`` — on the numpy backend a ``k``-row rectangle of the
        block, not its square (:class:`~repro.similarity.batch.
        BlockState`).  The result feeds ``add_page(features, scores=...)``.

        **Bit-identity.**  The sequential path calls
        ``function(new, other)`` with the new page as the *left*
        argument; the block sweep scores pair ``(i, j)`` with the earlier
        block position on the left.  Most of the battery is
        argument-order symmetric to the last bit, but not all of it
        (F9's fold can differ in the final ulp), so the block lays pages
        out in **reverse add order** — each new page occupies an earlier
        position than every page it is scored against, existing pages
        come last.  Every masked score is then produced by
        ``scorer(new, other)`` with exactly the sequential argument
        order, and the prepared-scorer / kernel contracts make those
        bytes equal to ``pair_scores``.
        ``tests/core/test_coalescing.py`` enforces equality at tolerance
        zero on both backends.

        Returns ``None`` when coalescing cannot apply: a doc id
        duplicated within the batch or against the index (the sequential
        path owns the error), or an empty batch.  Callers fall back to
        sequential adds.

        Raises:
            ValueError: when a page was extracted for a read set that
                leaves out a field the consulted functions read.
        """
        self._require_fitted()
        if not new_features:
            return None
        require_covered(new_features, self._state.functions.values())
        features = dict(self._features)
        existing_ids = list(features)
        new_ids = []
        for page in new_features:
            if page.doc_id in features:
                return None  # duplicate — let add_page raise its ValueError
            features[page.doc_id] = page
            new_ids.append(page.doc_id)
        # Reverse add order puts every new page at an earlier block
        # position than all of its scoring partners.
        ids = list(reversed(new_ids)) + existing_ids
        mask = frozenset(
            pair_key(new_id, other_id)
            for index, new_id in enumerate(new_ids)
            for other_id in existing_ids + new_ids[:index]
        )
        return self._backend.block_scores(
            ids, features, list(self._state.functions.values()), mask=mask)

    def _link_decision_threshold(self) -> float:
        """The probability cut-off that asserts a link."""
        state = self._state
        if state.chosen_layer is not None:
            return 0.5  # region-accuracy majority rule
        return state.combination_threshold if (
            state.combination_threshold is not None) else 0.5

    def add_page(self, features: PageFeatures,
                 scores: dict[str, dict[PairKey, float]] | None = None,
                 ) -> Assignment:
        """Assign one new page to an entity (or create a new one).

        The page joins the cluster with the highest *mean* link probability
        over its members, provided that mean clears the fitted decision
        threshold; otherwise it becomes a new singleton entity.

        Args:
            features: the new page's extracted features.
            scores: optional precomputed pair scores (``function name ->
                {pair_key: score}``) covering this page against every
                indexed page — the request-coalescing fast path; must be
                bit-identical to backend ``pair_scores`` values.

        Raises:
            RuntimeError: before :meth:`fit`.
            ValueError: if the doc id already exists, or the features
                were extracted for a read set that leaves out a field
                the consulted functions read.
        """
        self._require_fitted()
        if features.doc_id in self._features:
            raise ValueError(f"page {features.doc_id!r} already resolved")
        require_covered((features,), self._state.functions.values())

        # One batched scoring pass over every indexed page; the
        # per-cluster means then fold exactly as the pairwise loop did.
        members = [member for cluster in self._clusters
                   for member in cluster]
        probabilities = dict(zip(members, self._pair_probabilities(
            features, [self._features[member] for member in members],
            scores=scores)))
        best_index = -1
        best_probability = -1.0
        for index, cluster in enumerate(self._clusters):
            total = sum(probabilities[member] for member in cluster)
            mean_probability = total / len(cluster)
            if mean_probability > best_probability:
                best_probability = mean_probability
                best_index = index

        threshold = self._link_decision_threshold()
        if best_index >= 0 and best_probability > threshold:
            self._clusters[best_index].add(features.doc_id)
            assignment = Assignment(
                doc_id=features.doc_id,
                cluster_index=best_index,
                created_new_cluster=False,
                link_probability=best_probability,
            )
        else:
            self._clusters.append({features.doc_id})
            assignment = Assignment(
                doc_id=features.doc_id,
                cluster_index=len(self._clusters) - 1,
                created_new_cluster=True,
                link_probability=max(best_probability, 0.0),
            )
        self._features[features.doc_id] = features
        return assignment

    def add_pages(self, pages: list[PageFeatures]) -> list[Assignment]:
        """Assign several new pages in order."""
        return [self.add_page(features) for features in pages]

    def _require_fitted(self) -> None:
        if self._state is None:
            raise RuntimeError("IncrementalResolver used before fit()")
