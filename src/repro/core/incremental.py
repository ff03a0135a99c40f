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

Every add — one page, or a :class:`Burst` of several scored at once —
is one :meth:`~repro.similarity.backends.ScoringBackend.rectangle` call:
the new pages against the indexed ones and each other.  The index keeps
the backend's resident record (on ``numpy``, each page's interned
vectors, sets, entity counts and moments), appended as pages join; a
page's dicts are walked into it once, the first time a rectangle reads
them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.core.combination import build_combiner, consulted_function_names
from repro.core.config import ResolverConfig
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
from repro.similarity.backends import Rectangle, resolve_backend
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
class Burst:
    """New pages scored against the entity index and each other, for
    adding in order (:meth:`IncrementalResolver.score_burst`).

    ``positions`` maps each page's doc id to its row of ``rectangle``,
    scored when the index held ``residents`` pages; ``joined`` lists the
    positions of the pages that have joined since, in order.
    """

    positions: dict[str, int]
    residents: int
    rectangle: Rectangle
    joined: list[int] = field(default_factory=list)

    def position(self, doc_id: str, indexed: int) -> int | None:
        """``doc_id``'s row while it still lines up with an index of
        ``indexed`` pages — the residents, then earlier pages of this
        burst — else ``None``."""
        position = self.positions.get(doc_id)
        if (position is None
                or indexed != self.residents + len(self.joined)
                or (self.joined and self.joined[-1] >= position)):
            return None
        return position

    def scores(self, position: int) -> dict[str, list[float]]:
        """The page's scores per function, one per index row."""
        rows = {name: rows[position]
                for name, rows in self.rectangle.rows.items()}
        if len(self.joined) == position:
            return rows
        # An earlier page of the burst never joined: drop its column.
        kept = [*range(self.residents),
                *(self.residents + joined for joined in self.joined)]
        return {name: [row[column] for column in kept]
                for name, row in rows.items()}


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
        # The request path scores new pages against every indexed page
        # through the config's scoring backend (one rectangle call per
        # add or burst); backends are bit-identical, so assignments
        # never depend on the choice.
        self._backend = resolve_backend(self.config.backend)
        self._combiner = build_combiner(self.config.combiner)
        self._state: _FittedState | None = None
        # Indexed pages in add order — a page's position is its row —
        # and each entity's rows.
        self._features: dict[str, PageFeatures] = {}
        self._clusters: list[list[int]] = []
        self._record = None

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
        ids = list(self._features)
        return Clustering([[ids[row] for row in rows]
                           for rows in self._clusters])

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
        row_of = {doc_id: row for row, doc_id in enumerate(self._features)}
        self._clusters = [[row_of[doc_id] for doc_id in cluster]
                          for cluster in clusters]
        self._record = self._backend.resident_record(
            list(self._state.functions.values()),
            list(self._features.values()))

    def __contains__(self, doc_id: object) -> bool:
        """Whether a page with this doc id is in the entity index."""
        return doc_id in self._features

    def indexed_features(self) -> list[PageFeatures]:
        """Features of every indexed page, in the order they were added
        — the rows every score list of a :class:`Burst` lines up with."""
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
        return self._link_probabilities({
            name: self._backend.pair_scores(function, new, [existing])
            for name, function in self._state.functions.items()})[0]

    def _link_probabilities(
            self, scores: dict[str, list[float]]) -> list[float]:
        """Combined link probabilities from each function's scores.

        One bulk region-table lookup per consulted layer
        (:meth:`~repro.core.decisions.FittedDecision.link_probabilities`,
        value-by-value identical to the scalar one), then the combiner's
        stored parameters fold the layers per pair, in layer order.
        """
        state = self._state
        if state.chosen_layer is not None:
            layer = state.chosen_layer
            return list(layer.fitted.link_probabilities(
                scores[layer.function_name]))
        total = sum(state.layer_weights)
        probabilities = []
        for column in zip(*(layer.fitted.link_probabilities(
                scores[layer.function_name]) for layer in state.layers)):
            numerator = 0.0
            for weight, probability in zip(state.layer_weights, column):
                numerator += weight * probability
            probabilities.append(numerator / total)
        return probabilities

    def score_burst(self, new_features: list[PageFeatures]) -> Burst | None:
        """Score adding ``new_features`` in order, in one backend call.

        New page ``k`` is scored against every indexed page plus new
        pages ``0..k-1`` — exactly the pairs a chain of :meth:`add_page`
        calls would score, with the same argument order, so feeding the
        result to ``add_page(features, burst=...)`` page by page gives
        the chain's assignments bit for bit (``tests/core/
        test_coalescing.py``, tolerance zero on every backend).  Each
        page's inputs are prepared once per burst instead of once per
        add; on ``numpy`` the burst walks only its own pages and reads
        the indexed ones from the resident record.

        A page whose add fails is simply not added: the pages after it
        use the burst without its column.  Returns ``None`` when a burst
        cannot apply — an empty batch, or a doc id duplicated within the
        batch or against the index (the sequential path owns the error).

        Raises:
            ValueError: when a page was extracted for a read set that
                leaves out a field the consulted functions read.
        """
        self._require_fitted()
        if not new_features:
            return None
        require_covered(new_features, self._state.functions.values())
        positions: dict[str, int] = {}
        for position, page in enumerate(new_features):
            if page.doc_id in self._features or page.doc_id in positions:
                return None  # duplicate — let add_page raise its ValueError
            positions[page.doc_id] = position
        return self._score(list(new_features), positions)

    def _score(self, pages: list[PageFeatures],
               positions: dict[str, int]) -> Burst:
        """The backend rectangle of ``pages`` against the index."""
        residents = list(self._features.values())
        return Burst(positions, len(residents), self._backend.rectangle(
            list(self._state.functions.values()), residents, pages,
            self._record))

    def _link_decision_threshold(self) -> float:
        """The probability cut-off that asserts a link."""
        state = self._state
        if state.chosen_layer is not None:
            return 0.5  # region-accuracy majority rule
        return state.combination_threshold if (
            state.combination_threshold is not None) else 0.5

    def add_page(self, features: PageFeatures,
                 burst: Burst | None = None) -> Assignment:
        """Assign one new page to an entity (or create a new one).

        The page joins the cluster with the highest *mean* link probability
        over its members, provided that mean clears the fitted decision
        threshold; otherwise it becomes a new singleton entity.

        Args:
            features: the new page's extracted features.
            burst: a :meth:`score_burst` result holding this page, whose
                scores are used instead of scoring it afresh (it is
                scored afresh if the index no longer lines up with it).

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
        position = (None if burst is None
                    else burst.position(features.doc_id, len(self._features)))
        if position is None:
            burst, position = self._score([features],
                                          {features.doc_id: 0}), 0

        probabilities = self._link_probabilities(burst.scores(position))
        best_index = -1
        best_probability = -1.0
        for index, rows in enumerate(self._clusters):
            # Exactly rounded, so the mean does not depend on the order
            # the members are summed in.
            mean_probability = (math.fsum(map(probabilities.__getitem__,
                                              rows)) / len(rows))
            if mean_probability > best_probability:
                best_probability = mean_probability
                best_index = index

        row = len(self._features)
        threshold = self._link_decision_threshold()
        if best_index >= 0 and best_probability > threshold:
            self._clusters[best_index].append(row)
            assignment = Assignment(
                doc_id=features.doc_id,
                cluster_index=best_index,
                created_new_cluster=False,
                link_probability=best_probability,
            )
        else:
            self._clusters.append([row])
            assignment = Assignment(
                doc_id=features.doc_id,
                cluster_index=len(self._clusters) - 1,
                created_new_cluster=True,
                link_probability=max(best_probability, 0.0),
            )
        self._features[features.doc_id] = features
        burst.joined.append(position)
        if self._record is not None:
            entries = burst.rectangle.entries
            self._record.append(features,
                                None if entries is None else entries[position])
        return assignment

    def add_pages(self, pages: list[PageFeatures]) -> list[Assignment]:
        """Assign several new pages in order."""
        return [self.add_page(features) for features in pages]

    def _require_fitted(self) -> None:
        if self._state is None:
            raise RuntimeError("IncrementalResolver used before fit()")
