"""Online serving facade — the request path of a deployed resolver.

A :class:`ResolutionSession` loads a fitted
:class:`~repro.core.model.ResolverModel` once and then serves
``session.resolve(pages)`` calls: each incoming page is blocked by its
query name, routed to that block's *prepared state* (fitted decision
layers adopted into an :class:`~repro.core.incremental.IncrementalResolver`),
and assigned to an existing entity or a new one in
O(block pages × layers) — no labels read, no re-training, no quadratic
re-resolution per request.

Pages *without* a usable query name (the general web setting of the
paper's §IV-C footnote: crawled pages, uploads, mixed universes) are not
dead ends: the session keeps a token-blocking candidate index over its
prepared blocks' pages — the same entity-token keys
:class:`~repro.blocking.token_blocking.TokenBlocker` blocks on, with
boilerplate keys shared across most names excluded as stop-keys — and
routes a nameless page to the prepared block sharing the most blocking
keys, where it is assigned incrementally like any other request.  Named
traffic never reads that index, so it is built when a nameless page
first needs it: until then a named page is queued by reference at
admission, and the first nameless route tokenises the queued pages for
their keys.  From that route on, admission indexes every page as it
reads it.  The index and the queue are evicted with their blocks, so
memory stays bounded by the LRU.

Prepared state is built through a pared-down predict pass on first
contact with a name — extraction → similarity graphs → fitted decisions
→ clustering when the first request carries several pages (the "initial
crawl"), or straight fitted-state adoption with an empty entity index
when a single page arrives cold — and kept in a bounded LRU so a
long-lived process serving many hot names stays within memory budget.
Evicted names simply rebuild on next contact.

Typical deployment loop::

    session = ResolutionSession.open("model.json", pipeline=pipeline)
    for request in traffic:                    # single pages or batches
        assignments = session.resolve(request.pages)

A raw page is read once and extracted for what its slot reads.
Admission tokenises a raw page and the unit carries the tokens to
extraction; until the first nameless route, a page whose features the
request carries is not read at admission (only by that route's
indexing).  Each slot holds the read set of the fitted state it serves
(the ``PageFeatures`` fields the functions its combiner consults
declare — under best-graph selection one function's), and only the
extractor groups behind those fields run: a TF-IDF slot
runs no NER and no concept spotter, a slot that reads no ``tfidf``
counts no terms and never catches its context up.  The features a slot
indexes record that read set, and scoring them under any other function
raises.  Precomputed features a request carries are taken as they are.

Two phases serve every page: :meth:`ResolutionSession.admit`
(bookkeeping) and :meth:`ResolutionSession.process` (scoring).
``resolve`` runs one after the other; the threaded
:class:`~repro.serving.engine.ServingEngine` schedules the same two.

``repro serve`` runs a demo loop over this class.
"""

from __future__ import annotations

import logging
from collections import OrderedDict
from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.blocking.token_blocking import TokenBlocker
from repro.core.incremental import (
    INCREMENTAL_COMBINERS,
    Assignment,
    Burst,
    IncrementalResolver,
)
from repro.core.model import ResolverModel
from repro.corpus.documents import NameCollection, WebPage
from repro.extraction.features import PageFeatures
from repro.extraction.pipeline import BlockContext, ExtractionPipeline
from repro.extraction.tokenizer import page_tokens
from repro.metrics.clusterings import Clustering
from repro.runtime.stats import (HIDDEN, LatencyReservoir, LatencyView,
                                 StatsRecord, clock)
from repro.similarity.base import read_fields

__all__ = ["AdmittedUnit", "Processed", "ResolutionSession",
           "SessionStats", "as_page_list"]

logger = logging.getLogger(__name__)


@dataclass
class SessionStats(LatencyView, StatsRecord):
    """Lifetime counters of one serving session.

    Attributes:
        requests: ``resolve`` calls served.
        pages: pages assigned across all requests.
        incremental_assignments: pages routed through the incremental
            request path (vs batch bootstrap).
        routed_pages: pages without a usable query name routed through
            the token-blocking candidate index.
        new_entities: assignments that founded a new entity.
        prepared_blocks: per-name prepared slots reserved (first
            contacts, including rebuilds after eviction).
        evicted_blocks: prepared states dropped by the LRU bound.
        latency: bounded reservoir of per-request latencies (seconds);
            feeds ``seconds_total`` (wall time spent inside ``resolve``)
            and the mean and ``p50/p95/p99`` properties.  A serial mean
            hides tail behavior — the percentiles are what a
            deployment's SLO is written against.

    ``process`` and ``record_request`` fold their counters in under the
    record's own lock: a serving engine runs them on whichever thread
    takes a batch while other threads admit and read.  The other three
    are written by ``admit``, which its caller serialises.
    """

    requests: int = 0
    pages: int = 0
    incremental_assignments: int = 0
    routed_pages: int = 0
    new_entities: int = 0
    prepared_blocks: int = 0
    evicted_blocks: int = 0
    latency: LatencyReservoir = field(default_factory=LatencyReservoir,
                                      metadata=HIDDEN)

    def record_request(self, seconds: float, pages: int = 0) -> None:
        """Fold one served request into the counters and the reservoir."""
        with self._lock:
            self.requests += 1
            self.pages += pages
            self.latency.record(seconds)

    def record_assignments(self, incremental: int,
                           new_entities: int) -> None:
        """Fold one ``process`` call's assignments into the counters."""
        with self._lock:
            self.incremental_assignments += incremental
            self.new_entities += new_entities

    def summary(self) -> str:
        """One line for CLI output."""
        return (f"[session] {self.requests} requests / {self.pages} pages; "
                f"{self.prepared_blocks} blocks prepared, "
                f"{self.evicted_blocks} evicted; "
                f"{self.new_entities} new entities; "
                f"latency mean {self.mean_request_seconds * 1000:.2f}ms, "
                f"p50 {self.p50_request_seconds * 1000:.2f}ms, "
                f"p95 {self.p95_request_seconds * 1000:.2f}ms, "
                f"p99 {self.p99_request_seconds * 1000:.2f}ms")


@dataclass
class _PreparedBlock:
    """One name's request-path state: adopted layers + live entity index.

    ``incremental`` is ``None`` while the slot is *cold*: admission
    reserves it (so LRU accounting happens in admission order) and the
    first unit processed for it bootstraps the resolver.  A bootstrap
    that fails leaves the slot cold for the next unit.
    """

    query_name: str
    incremental: IncrementalResolver | None = None
    #: the ``PageFeatures`` fields the slot's fitted state consults
    #: (``None``: all of them) — what its raw pages are extracted for.
    #: Fixed for the slot's life: a session's model never changes.
    reads: frozenset[str] | None = None
    #: raw pages seen so far, in joining order.
    pages: list[WebPage] = field(default_factory=list)
    #: extraction context of the first ``context.n_pages`` of ``pages``
    #: (TF-IDF is weighed per block, so a new page is extracted among
    #: its block).  Pages that joined with precomputed features are
    #: folded in when a raw page next needs it; ``None`` is the context
    #: that trails by every page.  A slot that does not read ``tfidf``
    #: counts no page, ever.
    context: BlockContext | None = None


@dataclass
class AdmittedUnit:
    """One request's pages for one routed name — what ``admit`` hands to
    ``process``, and the serving engine's scheduling grain."""

    query_name: str
    pages: list[WebPage]
    features: dict[str, PageFeatures] | None
    #: the name's slot; units sharing it are processed in admission order.
    prepared: _PreparedBlock
    #: admission found no prepared state and reserved the slot.
    cold: bool
    #: ``page_tokens`` of ``pages``, in order — admission's one pass over
    #: each page's text, handed on to extraction.  An entry is ``None``
    #: when admission did not read the page: it is named, the request
    #: carries its features and no nameless page has been routed yet.
    tokens: list[list[str] | None]


@dataclass
class Processed:
    """What one :meth:`ResolutionSession.process` call did.

    Attributes:
        outcomes: per unit, in order: its assignments, or the exception
            that failed that unit alone.
        bootstrap: ``"batch"`` or ``"empty"`` when the call built a cold
            block, else ``None``.
        added_pages: pages the add phase took on (a batch bootstrap's
            own pages are not among them).
        swept: those pages were scored as one burst.
    """

    outcomes: list[list[Assignment] | Exception] = field(
        default_factory=list)
    bootstrap: str | None = None
    added_pages: int = 0
    swept: bool = False


def as_page_list(
        pages: WebPage | NameCollection | Iterable[WebPage]) -> list[WebPage]:
    """A request's pages as a list: one page, a block, or any iterable."""
    if isinstance(pages, WebPage):
        return [pages]
    if isinstance(pages, NameCollection):
        return list(pages.pages)
    return list(pages)


def assignments_from_partition(
    clustering: Clustering, pages: list[WebPage],
) -> tuple[list[Assignment], int]:
    """Per-page assignments synthesized from a batch partition.

    A batch bootstrap resolves its pages jointly, so no single pair
    probability applies to any one page; each page reports probability
    1.0 and "creates" its entity iff it is the first request page landing
    there.  Returns the assignments in page order plus the number of
    entities founded (for stats accounting).
    """
    index_of: dict[str, int] = {}
    for index, cluster in enumerate(clustering):
        for doc_id in cluster:
            index_of[doc_id] = index
    assignments = []
    seen_clusters: set[int] = set()
    for page in pages:
        index = index_of[page.doc_id]
        created = index not in seen_clusters
        seen_clusters.add(index)
        assignments.append(Assignment(
            doc_id=page.doc_id,
            cluster_index=index,
            created_new_cluster=created,
            link_probability=1.0,
        ))
    return assignments, len(seen_clusters)


class ResolutionSession:
    """Serve single/new unlabeled pages from a fitted model.

    Args:
        model: a fitted resolver model (typically ``ResolverModel.load``).
        pipeline: extraction pipeline for raw pages (defaults to the
            model's; required unless every ``resolve`` call supplies
            precomputed features).
        max_blocks: LRU bound on concurrently prepared name blocks.
        model_block: fitted block whose state serves names the model was
            never fitted on (same semantics as ``predict``'s).

    Raises:
        ValueError: for model combiners without incremental support, or
            a non-positive ``max_blocks``.
    """

    def __init__(self, model: ResolverModel,
                 pipeline: ExtractionPipeline | None = None,
                 max_blocks: int = 32,
                 model_block: str | None = None):
        if max_blocks < 1:
            raise ValueError(f"max_blocks must be >= 1, got {max_blocks}")
        if model.config.combiner not in INCREMENTAL_COMBINERS:
            raise ValueError(
                f"the session's request path does not support combiner "
                f"{model.config.combiner!r}")
        self.model = model
        self.extraction = pipeline or model.pipeline
        self.max_blocks = max_blocks
        self.model_block = model_block
        self._prepared: OrderedDict[str, _PreparedBlock] = OrderedDict()
        # Token-blocking candidate index over served pages: blocking key
        # -> prepared names it appeared under (with the reverse map for
        # eviction).  Routes pages without a usable query name.  Until
        # the first nameless route, named pages wait in ``_unindexed``
        # (by reference: the queue keeps no tokens) for a route to index
        # them; from then on ``_index_on_admit`` is set and admission
        # indexes every page as it reads it.  Entries and queued pages
        # are dropped with their block's LRU eviction, so index memory
        # stays bounded by ``max_blocks``.
        self._token_blocker = TokenBlocker()
        self._token_index: dict[str, set[str]] = {}
        self._keys_by_name: dict[str, set[str]] = {}
        self._unindexed: dict[str, list[WebPage]] = {}
        self._index_on_admit = False
        # Fitted-state name -> the fields its consulted functions read.
        # The model never changes (``swap`` builds a new session), so
        # each is derived once.
        self._reads: dict[str, frozenset[str] | None] = {}
        self.stats = SessionStats()

    @classmethod
    def open(cls, path, pipeline: ExtractionPipeline | None = None,
             **kwargs) -> "ResolutionSession":
        """Load a saved model once and wrap it in a serving session.

        Args:
            path: a model JSON written by :meth:`ResolverModel.save`.
            pipeline: extraction pipeline (models never serialize one).
            **kwargs: forwarded to the constructor.
        """
        return cls(ResolverModel.load(path), pipeline=pipeline, **kwargs)

    # -- the request path ------------------------------------------------

    def resolve(
        self,
        pages: WebPage | NameCollection | list[WebPage],
        features: dict[str, PageFeatures] | None = None,
    ) -> list[Assignment]:
        """Assign every incoming page to an entity; one request.

        :meth:`admit` groups the pages by name (the blocking step),
        then :meth:`process` serves each name's unit; their docstrings
        hold the routing, bootstrap and failure rules.

        Args:
            pages: a single page, a list of pages, or a block.
            features: optional precomputed features by doc id — pages
                not covered are extracted with the session's pipeline,
                for the fields their name's fitted state consults.

        Returns:
            One :class:`~repro.core.incremental.Assignment` per page, in
            input order.

        Raises:
            KeyError: from :meth:`admit`, before any page is admitted.
            ValueError: when extraction is needed but the session has no
                pipeline, or a page was already resolved.  Every name of
                the request is still processed; the first failure is
                raised afterwards.
        """
        started = clock()
        page_list = as_page_list(pages)
        by_doc: dict[str, Assignment] = {}
        failure: Exception | None = None
        for unit in self.admit(page_list, features):
            (outcome,) = self.process([unit]).outcomes
            if isinstance(outcome, Exception):
                if failure is None:
                    failure = outcome
                continue
            for assignment in outcome:
                by_doc[assignment.doc_id] = assignment
        if failure is not None:
            raise failure
        self.stats.record_request(clock() - started, pages=len(page_list))
        return [by_doc[page.doc_id] for page in page_list]

    def admit(
        self,
        pages: WebPage | NameCollection | Iterable[WebPage],
        features: dict[str, PageFeatures] | None = None,
    ) -> list[AdmittedUnit]:
        """Phase one of a request: pure bookkeeping, no scoring.

        Routes each page (its query name, or for a nameless page the
        served block sharing the most blocking keys), rejects the whole
        request when any routed name cannot be served, then per routed
        name looks up the prepared block — or *reserves* a cold slot, so
        the LRU bookkeeping (prepared / evicted counts, eviction order)
        happens in admission order — and indexes the pages for nameless
        routing.  Until the session routes its first nameless page, a
        named page is only queued for the index and read only when
        extraction will read it, i.e. unless ``features`` carries it;
        from then on every page is read and indexed here.

        Not thread-safe: concurrent callers serialise admissions (the
        serving engine holds its admission lock around this call).

        Returns:
            One :class:`AdmittedUnit` per routed name, in first-page
            order, for :meth:`process`.

        Raises:
            KeyError: for a query name without fitted state when no
                ``model_block`` fallback is configured, or a nameless
                page no served block shares a blocking key with —
                before any admission effect, so the corrected request
                can be retried.
        """
        # At most one pass over each page's text serves routing, the
        # index and (through the unit) extraction.
        carried = features or {}
        index_now = self._index_on_admit
        grouped: OrderedDict[str, list[tuple]] = OrderedDict()
        for page in as_page_list(pages):
            if page.query_name and not index_now:
                tokens = None if page.doc_id in carried else page_tokens(page)
                keys = None
            else:
                tokens = page_tokens(page)
                keys = self._token_blocker.token_keys(tokens)
            query_name = page.query_name or self._route_unnamed(page, keys)
            grouped.setdefault(query_name, []).append((page, tokens, keys))
        for query_name in grouped:
            if query_name not in self._prepared:
                self._fallback_for(query_name)

        units = []
        for query_name, group in grouped.items():
            prepared = self._lookup(query_name)
            cold = prepared is None
            if cold:
                prepared = self._reserve(query_name)
            group_pages, group_tokens, group_keys = map(list, zip(*group))
            self._index_keys(query_name, filter(None, group_keys))
            for page, keys in zip(group_pages, group_keys):
                if keys is None:
                    self._unindexed.setdefault(query_name, []).append(page)
            units.append(AdmittedUnit(query_name, group_pages, features,
                                      prepared, cold, group_tokens))
        return units

    def process(self, units: list[AdmittedUnit]) -> Processed:
        """Phase two: score admitted units of *one* prepared block.

        ``units`` are consecutive units sharing a ``prepared`` slot, in
        admission order; callers never run two calls for the same slot
        at once (different slots may run concurrently).  A cold slot is
        bootstrapped from the first unit — a batch predict pass when it
        carries several pages, an empty entity index otherwise — and a
        bootstrap that fails leaves the slot cold for the next unit.
        The remaining pages are then added in order: scored as one burst
        (:meth:`IncrementalResolver.score_burst`) when there are two or
        more and all carry features, else page by page — a raw page must
        be extracted *after* its predecessors joined the block (TF-IDF
        context).  Both are bit-identical to one ``process`` call per
        unit.

        A unit fails alone: its exception becomes its outcome and the
        units after it are served as if it had never been admitted.  A
        unit with a doc id already resolved (or repeated inside the
        unit) fails before any of its pages joins, so the corrected
        request can be retried.
        """
        prepared = units[0].prepared
        done = Processed()
        rest = list(units)
        added: list[Assignment] = []
        founded = 0

        while rest and prepared.incremental is None:
            if len(rest[0].pages) == 1:
                prepared.incremental = self._adopt_empty(prepared.query_name)
                done.bootstrap = "empty"
                break
            first = rest.pop(0)
            try:
                self._check_unresolved(prepared, first.pages)
                self._bootstrap(prepared, first.pages, first.features,
                                tokens=first.tokens)
            except Exception as error:
                done.outcomes.append(error)
            else:
                assignments, founded = assignments_from_partition(
                    prepared.incremental.clusters(), first.pages)
                done.outcomes.append(assignments)
                done.bootstrap = "batch"

        work = [[(page, (unit.features or {}).get(page.doc_id), tokens)
                 for page, tokens in zip(unit.pages, unit.tokens)]
                for unit in rest]
        provided = [page_features for triples in work
                    for _, page_features, _ in triples]
        burst = None
        if len(provided) > 1 and None not in provided:
            # ``None`` back on a duplicate: the per-unit check below
            # owns that error, page by page.
            burst = prepared.incremental.score_burst(provided)
        done.added_pages = len(provided)
        done.swept = burst is not None
        for unit, triples in zip(rest, work):
            assignments = []
            try:
                self._check_unresolved(prepared, unit.pages)
                for page, page_features, tokens in triples:
                    assignments.append(self._add_page(
                        prepared, page, page_features, burst, tokens))
            except Exception as error:
                done.outcomes.append(error)
            else:
                done.outcomes.append(assignments)
            added.extend(assignments)

        self.stats.record_assignments(
            len(added),
            founded + sum(a.created_new_cluster for a in added))
        return done

    def warm(self, block: NameCollection,
             features: dict[str, PageFeatures] | None = None,
             graphs: dict | None = None) -> Clustering:
        """Explicitly bootstrap one name from an initial page batch.

        Reserves the name's slot and runs the batch bootstrap of
        :meth:`process` (extraction → similarity → fitted decisions →
        clustering) over ``block``.  ``resolve`` does this implicitly
        for multi-page first contact; ``warm`` exposes it for
        deployments that pre-load hot names (and lets callers pass
        precomputed ``graphs``).

        Warming a name that is *already* prepared refreshes its LRU
        recency and returns the live partition unchanged — it must not
        re-bootstrap (which would discard incremental assignments served
        since the first warm, double-count ``prepared_blocks``, and
        churn the eviction accounting).

        Returns the block's entity partition.
        """
        prepared = self._lookup(block.query_name)
        if prepared is None:
            self._fallback_for(block.query_name)
            prepared = self._reserve(block.query_name)
        if prepared.incremental is None:
            self._unindexed.setdefault(block.query_name,
                                       []).extend(block.pages)
            self._bootstrap(prepared, block.pages, features, graphs=graphs)
        return prepared.incremental.clusters()

    # -- inspection ------------------------------------------------------

    def clusters(self, query_name: str) -> Clustering:
        """The current entity partition of a prepared name.

        Raises:
            KeyError: when the name has no prepared state (never served,
                evicted, or reserved by a bootstrap that has not
                succeeded).
        """
        prepared = self._prepared.get(query_name)
        if prepared is None or prepared.incremental is None:
            raise KeyError(
                f"no prepared state for {query_name!r}; prepared names "
                f"are: {', '.join(self._prepared) or '<none>'}")
        return prepared.incremental.clusters()

    def routing_keys(self) -> dict[str, frozenset[str]]:
        """The nameless-routing index: each indexed name's blocking keys.

        Indexes the queued pages first, so this is the index the next
        nameless page would be routed on, read from the key -> names map
        the vote reads.  Like :meth:`admit`, not thread-safe.
        """
        self._index_queued()
        index: dict[str, set[str]] = {}
        for key, names in self._token_index.items():
            for name in names:
                index.setdefault(name, set()).add(key)
        return {name: frozenset(keys) for name, keys in index.items()}

    def prepared_names(self) -> list[str]:
        """Names with a prepared slot, least recently used first."""
        return list(self._prepared)

    def __contains__(self, query_name: object) -> bool:
        return query_name in self._prepared

    def __repr__(self) -> str:
        return (f"ResolutionSession({len(self._prepared)}/{self.max_blocks} "
                f"blocks prepared, {self.stats.requests} requests)")

    # -- admission internals ---------------------------------------------

    def _route_unnamed(self, page: WebPage, keys: set[str]) -> str:
        """The block a nameless page's blocking ``keys`` route it to:
        the indexed name sharing the most of them.

        Indexes the queued named pages first, so the vote runs on the
        index eager admission would have built, and has admission index
        every page from then on: a session that sees one nameless page
        will see more.  Keys appearing under more than
        ``max_block_fraction`` of the indexed names are stop-keys (the
        session analogue of :class:`TokenBlocker`'s stop-blocks):
        boilerplate shared by every name must not vote, or it would
        route arbitrary pages to the lexicographically first name.
        """
        indexed = self._index_queued()
        self._index_on_admit = True
        stop = max(1, int(self._token_blocker.max_block_fraction
                          * len(self._keys_by_name)))
        votes: dict[str, int] = {}
        for key in keys:
            names = self._token_index.get(key, ())
            if len(names) > stop:
                continue
            for name in names:
                votes[name] = votes.get(name, 0) + 1
        if not votes:
            raise KeyError(
                f"page {page.doc_id!r} has no query name and shares no "
                f"blocking key with any served block; serve some named "
                f"traffic first (the token index grows with every "
                f"resolved page)")
        # Most shared blocking keys wins; lexicographic tie-break keeps
        # routing deterministic.
        routed = min(votes, key=lambda name: (-votes[name], name))
        self.stats.routed_pages += 1
        if logger.isEnabledFor(logging.DEBUG):
            logger.debug("route %(doc_id)r -> %(query_name)r: %(votes)d "
                         "shared keys among %(candidates)s; %(indexed)d "
                         "queued pages indexed", dict(
                             doc_id=page.doc_id, query_name=routed,
                             votes=votes[routed],
                             candidates=sorted(votes), indexed=indexed))
        return routed

    def _index_queued(self) -> int:
        """Index the queued named pages — admitted before the first
        nameless route, or warmed — reading each one's text again;
        returns how many."""
        queued, self._unindexed = self._unindexed, {}
        token_keys = self._token_blocker.token_keys
        for query_name, pages in queued.items():
            self._index_keys(query_name, (token_keys(page_tokens(page))
                                          for page in pages))
        return sum(map(len, queued.values()))

    def _index_keys(self, query_name: str,
                    keys_by_page: Iterable[set[str]]) -> None:
        """Index pages' blocking keys under ``query_name``."""
        keys = self._keys_by_name.setdefault(query_name, set())
        for page_keys in keys_by_page:
            keys.update(page_keys)
            for key in page_keys:
                self._token_index.setdefault(key, set()).add(query_name)

    def _unindex(self, query_name: str) -> None:
        """Drop an evicted name's keys and queued pages (bounds index
        memory to the LRU)."""
        self._unindexed.pop(query_name, None)
        for key in self._keys_by_name.pop(query_name, ()):
            names = self._token_index.get(key)
            if names is not None:
                names.discard(query_name)
                if not names:
                    del self._token_index[key]

    def _fallback_for(self, query_name: str) -> str | None:
        # Force the model's standard unknown-name KeyError when no
        # fallback is configured.
        if query_name in self.model.blocks:
            return None
        if self.model_block is None:
            self.model._fitted_for(query_name)
        return self.model_block

    def _fitted_state(self, query_name: str):
        """The fitted block a name is served by: its own, else the
        ``model_block`` fallback's."""
        return self.model.blocks[self._fallback_for(query_name)
                                 or query_name]

    def _reads_for(self, query_name: str) -> frozenset[str] | None:
        """The fields the fitted state serving ``query_name`` consults."""
        state = self._fallback_for(query_name) or query_name
        if state not in self._reads:
            self._reads[state] = read_fields(self.model.scoring_functions(
                self.model.blocks[state]))
        return self._reads[state]

    def _lookup(self, query_name: str) -> _PreparedBlock | None:
        prepared = self._prepared.get(query_name)
        if prepared is not None:
            self._prepared.move_to_end(query_name)
        return prepared

    def _reserve(self, query_name: str) -> _PreparedBlock:
        """Store a cold slot for a name, evicting past the LRU bound.

        Reserving at admission — not when the bootstrap completes —
        makes the LRU bookkeeping a function of the admission order
        alone, whatever schedule ``process`` then runs under.
        """
        prepared = self._prepared[query_name] = _PreparedBlock(
            query_name, reads=self._reads_for(query_name))
        self.stats.prepared_blocks += 1
        while len(self._prepared) > self.max_blocks:
            evicted_name, _ = self._prepared.popitem(last=False)
            self._unindex(evicted_name)
            self.stats.evicted_blocks += 1
        return prepared

    # -- processing internals --------------------------------------------

    def _bootstrap(self, prepared: _PreparedBlock, pages: list[WebPage],
                   features: dict[str, PageFeatures] | None,
                   graphs: dict | None = None,
                   tokens: list[list[str]] | None = None) -> None:
        """The batch bootstrap: resolve ``pages`` once with the model and
        adopt the result as the cold slot's state."""
        block = NameCollection(query_name=prepared.query_name,
                               pages=list(pages))
        block_features, context = self._block_features(
            block, features, prepared.reads, tokens)
        prepared.incremental = IncrementalResolver.from_model(
            self.model, block, block_features,
            model_block=self._fallback_for(block.query_name), graphs=graphs)
        prepared.pages.extend(block.pages)
        prepared.context = context

    def _adopt_empty(self, query_name: str) -> IncrementalResolver:
        """Cold-adopt fitted state for a name, with an empty entity index."""
        return IncrementalResolver.from_fitted(
            self.model.config, self._fitted_state(query_name))

    @staticmethod
    def _check_unresolved(prepared: _PreparedBlock,
                          pages: list[WebPage]) -> None:
        """Raise before any of a unit's ``pages`` joins if one cannot:
        its doc id is in the block's index, or earlier in the unit."""
        seen: set[str] = set()
        for page in pages:
            if page.doc_id in seen or (
                    prepared.incremental is not None
                    and page.doc_id in prepared.incremental):
                raise ValueError(f"page {page.doc_id!r} already resolved")
            seen.add(page.doc_id)

    def _add_page(self, prepared: _PreparedBlock, page: WebPage,
                  page_features: PageFeatures | None,
                  burst: Burst | None = None,
                  tokens: list[str] | None = None) -> Assignment:
        """Add ``page`` to a prepared block: extract (unless it came with
        features), assign, record.  ``burst`` as for ``add_page``;
        ``tokens`` are the page's, when admission read it."""
        try:
            if page_features is None:
                page_features = self._extract_page(prepared, page, tokens)
            assignment = prepared.incremental.add_page(page_features,
                                                       burst=burst)
        except BaseException:
            # Extraction counted the page into the context, but it never
            # joined ``pages``; rebuild the context on next use.
            prepared.context = None
            raise
        prepared.pages.append(page)
        return assignment

    def _extract_page(self, prepared: _PreparedBlock, page: WebPage,
                      tokens: list[str] | None = None) -> PageFeatures:
        """Extract one new page in the context of its current block, for
        the fields the slot reads.

        TF-IDF is weighed per block, so the page is extracted among the
        pages already served for the name.  Only the new page is read:
        the earlier ones are in ``prepared.context`` already, bar those
        that joined with precomputed features since it was last used.
        """
        if self.extraction is None:
            raise ValueError(
                "session has no extraction pipeline; pass pipeline= at "
                "construction or precomputed features to resolve()")
        context = prepared.context
        if context is None:
            context = prepared.context = self.extraction.block_context(
                prepared.query_name, prepared.reads)
        self.extraction.fold(prepared.pages[context.n_pages:], context)
        block = NameCollection(query_name=prepared.query_name, pages=[page])
        return self.extraction.extract_block(
            block, context,
            tokens=None if tokens is None else [tokens])[page.doc_id]

    def _block_features(
        self, block: NameCollection,
        features: dict[str, PageFeatures] | None,
        reads: frozenset[str] | None,
        tokens: list[list[str]] | None,
    ) -> tuple[dict[str, PageFeatures], BlockContext | None]:
        """A bootstrap block's features — supplied, or extracted for
        ``reads`` from the pages' ``tokens`` — and the extraction context
        they were weighed in (``None`` when they came precomputed)."""
        if features is not None:
            covered = {page.doc_id: features[page.doc_id]
                       for page in block.pages if page.doc_id in features}
            if len(covered) == len(block.pages):
                return covered, None
        if self.extraction is None:
            raise ValueError(
                "session has no extraction pipeline; pass pipeline= at "
                "construction or features covering the whole block")
        context = self.extraction.block_context(block.query_name, reads)
        return (self.extraction.extract_block(block, context, tokens=tokens),
                context)
