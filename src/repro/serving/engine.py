"""Thread-safe serving engine — the concurrent online request path.

:class:`~repro.pipeline.session.ResolutionSession` serves one request at
a time; :class:`ServingEngine` serves the same request path to any
number of threads.  It serves no page itself: it schedules the
session's two phases.

**Two phases, one queue.**  Every request passes
:meth:`ResolutionSession.admit` under one engine-wide lock — route,
reject, look up or *reserve* the name's slot (so eviction accounting
happens in admission order), index — and the per-name **units** it
returns join one queue in admission order.  That is microseconds of
bookkeeping.  The expensive work, :meth:`ResolutionSession.process`
(extraction, bootstrap predicts, incremental scoring), runs outside the
admission lock, one batch at a time, on a calling thread: ``resolve``
drains the queue until its own units are settled, ``flush`` until the
queue is empty, and no background thread exists.  Scoring is CPU-bound
under the GIL, so a second concurrent scorer would only add switches.

**Request coalescing.**  A batch is the queue head plus every later
queued unit for the same prepared slot, in order, up to ``max_batch``;
the other units keep their places.  One ``process`` call serves it,
scoring two or more feature-carrying pages as one burst
(:meth:`~repro.core.incremental.IncrementalResolver.score_burst`).
Units queue while a batch is scored, so a same-name stampede coalesces
by itself, bit-identical to sequential per-page serving.

**Deterministic replay.**  Every state decision (routing, LRU,
eviction, bootstrap-vs-incremental) is made at admission in one
serialized order, and each slot's units are processed in that order, so
replaying the admission journal through a plain serial
``ResolutionSession`` — the same ``admit`` / ``process`` code under the
one-caller schedule — reproduces the engine's clusters *bit for bit*.
Enable ``record_journal=True`` and check with
:func:`~repro.serving.replay.verify_serial_equivalence`.

Model hot-swap is a pointer move: :meth:`ServingEngine.swap` publishes
a :class:`~repro.serving.snapshot.ModelSnapshot` built off-line, and
in-flight requests finish on the snapshot they were admitted under.

Typical deployment::

    engine = ServingEngine(model, pipeline=pipeline, max_batch=16)
    assignments = engine.resolve(request.pages)   # from any thread
    engine.swap(refit_model)                      # any time, no drain
"""

from __future__ import annotations

import logging
import threading
from collections import OrderedDict, deque
from concurrent.futures import Future
from dataclasses import dataclass, field

from repro.core.incremental import Assignment
from repro.core.model import ResolverModel
from repro.corpus.documents import NameCollection, WebPage
from repro.extraction.features import PageFeatures
from repro.extraction.pipeline import ExtractionPipeline
from repro.metrics.clusterings import Clustering
from repro.pipeline.session import AdmittedUnit, as_page_list
from repro.runtime.stats import (HIDDEN, LatencyReservoir, LatencyView,
                                 StatsRecord, Timer, clock, rate)
from repro.serving.snapshot import ModelSnapshot

__all__ = ["EngineStats", "ServingEngine"]

#: one ``DEBUG`` record per processed batch; silent unless configured.
logger = logging.getLogger(__name__)


@dataclass
class EngineStats(LatencyView, StatsRecord):
    """Lifetime counters of one serving engine.

    Attributes:
        requests: requests admitted (a ``resolve``/``submit`` call).
        pages: pages admitted across all requests.
        units: per-name work units those requests split into.
        failed_requests: requests whose future completed with an error.
        scoring_batches: per-name batches executed (any size).
        coalesced_batches: batches that merged more than one page into
            one masked scoring pass.
        coalesced_pages: pages served through such merged batches.
        max_batch_pages: largest batch executed.
        bootstraps: cold per-name states built (batch or empty adopt).
        lru_hits: admissions that found live prepared state.
        lru_misses: admissions that had to reserve a cold slot.
        swaps: model snapshots published by :meth:`ServingEngine.swap`.
        swap_stall_seconds: total time swaps held the admission lock —
            the only moment a swap can stall traffic.
        max_inflight: high-watermark of concurrently in-flight units.
        latency: bounded reservoir of completed request latencies
            (admission → future), feeding ``seconds_total`` and the mean
            and percentile properties.
    """

    derived = ("mean_coalesced_pages", "lru_hit_rate") + LatencyView.derived

    requests: int = 0
    pages: int = 0
    units: int = 0
    failed_requests: int = 0
    scoring_batches: int = 0
    coalesced_batches: int = 0
    coalesced_pages: int = 0
    max_batch_pages: int = 0
    bootstraps: int = 0
    lru_hits: int = field(default=0, metadata=HIDDEN)
    lru_misses: int = field(default=0, metadata=HIDDEN)
    swaps: int = 0
    swap_stall_seconds: float = 0.0
    max_inflight: int = 0
    latency: LatencyReservoir = field(default_factory=LatencyReservoir,
                                      metadata=HIDDEN)

    @property
    def lru_hit_rate(self) -> float:
        """Fraction of admissions served from live prepared state."""
        return rate(self.lru_hits, self.lru_hits + self.lru_misses)

    @property
    def mean_coalesced_pages(self) -> float:
        """Mean pages per multi-page batch (0.0 when none coalesced)."""
        return rate(self.coalesced_pages, self.coalesced_batches)

    def summary(self) -> str:
        """One line for CLI output."""
        return (f"[engine] {self.requests} requests / {self.pages} pages; "
                f"{self.scoring_batches} batches "
                f"({self.coalesced_batches} coalesced, "
                f"max {self.max_batch_pages} pages); "
                f"LRU hit rate {self.lru_hit_rate:.0%}; "
                f"{self.swaps} swaps "
                f"(stall {self.swap_stall_seconds * 1000:.2f}ms); "
                f"latency p50 {self.p50_request_seconds * 1000:.2f}ms, "
                f"p95 {self.p95_request_seconds * 1000:.2f}ms, "
                f"p99 {self.p99_request_seconds * 1000:.2f}ms")


@dataclass
class _Unit:
    """One admitted unit on its way through the queue."""

    seq: int
    admitted: AdmittedUnit
    request: "_Request"
    journal_entry: dict | None = None


@dataclass(eq=False)
class _Request:
    """Aggregates a submit call's units back into one ordered future.
    Only the thread running a batch settles units, so it takes no lock."""

    order: list[str]
    remaining: int
    snapshot: ModelSnapshot
    future: Future = field(default_factory=Future)
    by_doc: dict[str, Assignment] = field(default_factory=dict)
    failed: bool = False
    started: float = field(default_factory=clock)


class ServingEngine:
    """Serve concurrent resolve traffic from hot-swappable snapshots.

    Args:
        model: the initial fitted model (snapshot version 1).
        pipeline: extraction pipeline for raw pages (as for
            :class:`ResolutionSession`).
        max_blocks: per-snapshot LRU bound on prepared name blocks.
        model_block: fitted block serving names the model was never
            fitted on (as for :class:`ResolutionSession`).
        max_batch: most units of one prepared slot merged into one
            scoring batch; the queue head's slot takes its queued units
            in order up to this bound, and the rest wait their turn.
        queue_depth: bound on concurrently admitted requests — further
            ``resolve``/``submit`` calls block (backpressure) until a
            slot frees.
        record_journal: keep an admission-ordered journal of every unit
            (pages, snapshot version, kind, assignments) for serial
            replay verification.  Off by default: the journal grows with
            traffic, so it is a test/bench tool, not a production mode.

    Raises:
        ValueError: for invalid knobs, or models the request path
            cannot serve (via :class:`ResolutionSession` validation).
    """

    def __init__(self, model: ResolverModel,
                 pipeline: ExtractionPipeline | None = None,
                 max_blocks: int = 32,
                 model_block: str | None = None,
                 max_batch: int = 16,
                 queue_depth: int = 1024,
                 record_journal: bool = False):
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if queue_depth < 1:
            raise ValueError(f"queue_depth must be >= 1, got {queue_depth}")
        self.max_blocks = max_blocks
        self.model_block = model_block
        self.max_batch = max_batch
        self._admission = threading.Lock()
        self._swap_lock = threading.Lock()
        self._queue_slots = threading.BoundedSemaphore(queue_depth)
        # Admitted units in admission order, and whether a batch is
        # running; both under ``_idle``, taken after ``_admission``.
        self._queue: deque[_Unit] = deque()
        self._busy = False
        self._idle = threading.Condition()
        self._inflight = 0
        self._seq = 0
        self._snapshot = ModelSnapshot.create(
            1, model, pipeline=pipeline, max_blocks=max_blocks,
            model_block=model_block)
        #: Generation number -> snapshot: every generation while the
        #: journal is on (replay reads them), else only the live one.
        self.snapshots: "OrderedDict[int, ModelSnapshot]" = OrderedDict(
            {1: self._snapshot})
        self.stats = EngineStats()
        self.journal: list[dict] | None = [] if record_journal else None

    # -- public API ------------------------------------------------------

    @property
    def snapshot(self) -> ModelSnapshot:
        """The live snapshot new requests are admitted under."""
        return self._snapshot

    def resolve(
        self,
        pages: WebPage | NameCollection | list[WebPage],
        features: dict[str, PageFeatures] | None = None,
    ) -> list[Assignment]:
        """Assign every incoming page to an entity; one request.

        Same contract as :meth:`ResolutionSession.resolve`, safe to call
        from any number of threads.  The calling thread processes queued
        batches — its own units and every unit admitted before them,
        whatever the name — until its request is settled, or waits while
        another caller's batch runs; no background thread exists.

        Raises:
            KeyError: unknown query name / unroutable nameless page —
                rejected atomically at admission, before any page of the
                request is assigned.
            ValueError: duplicate doc id, or extraction needed without a
                pipeline (surfaced through the request future).
        """
        request = self._admit(pages, features)
        self._drain(lambda: request.remaining == 0)
        return request.future.result()

    def submit(
        self,
        pages: WebPage | NameCollection | list[WebPage],
        features: dict[str, PageFeatures] | None = None,
    ) -> Future:
        """Admit a request and return its future without processing it.

        The work executes when any thread next drains the queue: an
        explicit :meth:`flush`, or the next :meth:`resolve` for any name
        — the queue is served in admission order, so a ``resolve`` also
        completes every unit admitted before it.  Admission errors
        (unknown name, backpressure) raise synchronously, as there.
        """
        return self._admit(pages, features).future

    def flush(self) -> None:
        """Process every queued unit (completes outstanding futures)."""
        self._drain(lambda: not self._queue and not self._busy)

    def swap(self, model: ResolverModel,
             pipeline: ExtractionPipeline | None = None) -> ModelSnapshot:
        """Publish a new model snapshot under live traffic.

        The replacement session is built entirely before the admission
        lock is taken, so concurrent requests stall for no longer than a
        pointer assignment (measured into ``stats.swap_stall_seconds``).
        In-flight requests finish on the snapshot they were admitted
        under; prepared state for the new model rebuilds lazily.

        Args:
            model: the refit model to serve from now on.
            pipeline: extraction pipeline for the new snapshot (default:
                the current snapshot's).

        Raises:
            ValueError: for models the request path cannot serve — the
                live snapshot stays untouched.
        """
        with self._swap_lock:
            current = self._snapshot
            replacement = ModelSnapshot.create(
                current.version + 1, model,
                pipeline=pipeline or current.pipeline,
                max_blocks=self.max_blocks, model_block=self.model_block)
            with Timer() as stall, self._admission:
                self._snapshot = replacement
                if self.journal is None:
                    # Only replay reads past generations; without a
                    # journal each dies with its last in-flight request.
                    self.snapshots.clear()
                self.snapshots[replacement.version] = replacement
        self.stats.fold(swaps=1, swap_stall_seconds=stall.seconds)
        return replacement

    def clusters(self, query_name: str) -> Clustering:
        """The live snapshot's current partition of a prepared name,
        read between batches (a running batch is mutating its slot)."""
        with self._admission, self._idle:
            while self._busy:
                self._idle.wait()
            return self._snapshot.session.clusters(query_name)

    def prepared_names(self) -> list[str]:
        """The live snapshot's prepared names, LRU order."""
        with self._admission:
            return self._snapshot.session.prepared_names()

    def __repr__(self) -> str:
        return (f"ServingEngine(v{self._snapshot.version}, "
                f"{self.stats.requests} requests, "
                f"{self.stats.swaps} swaps)")

    # -- admission (phase 1: bookkeeping under one lock) -----------------

    def _admit(self, pages, features) -> _Request:
        page_list = as_page_list(pages)
        if not page_list:
            request = _Request([], 0, self._snapshot)
            request.future.set_result([])
            return request
        self._queue_slots.acquire()
        try:
            with self._admission:
                return self._admit_locked(page_list, features)
        except BaseException:
            self._queue_slots.release()
            raise

    def _admit_locked(self, page_list, features) -> _Request:
        snapshot = self._snapshot
        admitted = snapshot.session.admit(page_list, features)
        request = _Request([page.doc_id for page in page_list],
                           len(admitted), snapshot)
        units = []
        for work in admitted:
            self._seq += 1
            unit = _Unit(seq=self._seq, admitted=work, request=request)
            if self.journal is not None:
                unit.journal_entry = {
                    "seq": unit.seq,
                    "version": snapshot.version,
                    "query_name": work.query_name,
                    "kind": ("incremental" if not work.cold
                             else "cold-batch" if len(work.pages) > 1
                             else "cold-empty"),
                    "pages": list(work.pages),
                    "doc_ids": [page.doc_id for page in work.pages],
                    "features": features,
                    "assignments": None,
                }
                self.journal.append(unit.journal_entry)
            units.append(unit)
        with self._idle:
            self._queue.extend(units)
        snapshot.requests_admitted += 1
        misses = sum(work.cold for work in admitted)
        stats = self.stats
        with stats._lock:
            stats.requests += 1
            stats.pages += len(page_list)
            stats.units += len(admitted)
            stats.lru_misses += misses
            stats.lru_hits += len(admitted) - misses
            self._inflight += len(admitted)
            stats.max_inflight = max(stats.max_inflight, self._inflight)
        return request

    # -- processing (phase 2: scoring outside the admission lock) --------

    def _drain(self, finished) -> None:
        """Run queued batches, one at a time across callers, until
        ``finished()``; wait while another caller's batch runs."""
        while True:
            with self._idle:
                while self._busy and not finished():
                    self._idle.wait()
                if finished():
                    return
                batch = self._take_batch()
                self._busy = True
            try:
                self._process_group(batch)
            finally:
                with self._idle:
                    self._busy = False
                    self._idle.notify_all()

    def _take_batch(self) -> list[_Unit]:
        """Pop the head and the later queued units for its slot, in
        order, up to ``max_batch``; the others keep their places (under
        ``_idle``).  Each slot's units leave in admission order."""
        queue = self._queue
        batch = [queue.popleft()]
        slot = batch[0].admitted.prepared
        skipped: list[_Unit] = []
        while queue and len(batch) < self.max_batch:
            unit = queue.popleft()
            (batch if unit.admitted.prepared is slot else skipped).append(
                unit)
        queue.extendleft(reversed(skipped))
        return batch

    def _process_group(self, units: list[_Unit]) -> None:
        snapshot = units[0].request.snapshot
        try:
            done = snapshot.session.process([unit.admitted for unit in units])
        except BaseException as error:
            # Nothing ``process`` foresees; no future may be left hanging.
            for unit in units:
                self._settle(unit, error)
            if not isinstance(error, Exception):
                raise
            return
        stats = self.stats
        with stats._lock:
            stats.bootstraps += done.bootstrap is not None
            stats.scoring_batches += ((done.bootstrap == "batch")
                                      + (done.added_pages > 0))
            stats.max_batch_pages = max(stats.max_batch_pages,
                                        done.added_pages)
            if done.swept:
                stats.coalesced_batches += 1
                stats.coalesced_pages += done.added_pages
        if logger.isEnabledFor(logging.DEBUG):
            logger.debug("v%(version)d %(query_name)r: %(units)d units, "
                         "%(pages)d pages, bootstrap %(bootstrap)s, swept "
                         "%(swept)s", dict(
                             version=snapshot.version,
                             query_name=units[0].admitted.query_name,
                             units=len(units),
                             pages=sum(len(u.admitted.pages) for u in units),
                             bootstrap=done.bootstrap, swept=done.swept))
        for unit, outcome in zip(units, done.outcomes):
            self._settle(unit, outcome)

    def _settle(self, unit: _Unit,
                outcome: list[Assignment] | BaseException) -> None:
        """Fold one unit's outcome into its request: the first failure
        fails the future, the last unit frees the queue slot and, when
        none failed, resolves the future in input order."""
        failed = isinstance(outcome, BaseException)
        request = unit.request
        if not failed:
            if unit.journal_entry is not None:
                unit.journal_entry["assignments"] = list(outcome)
            request.by_doc.update((a.doc_id, a) for a in outcome)
        first_failure = failed and not request.failed
        request.failed |= failed
        request.remaining -= 1
        last = request.remaining == 0
        completed = last and not request.failed
        elapsed = clock() - request.started if completed else 0.0
        stats = self.stats
        with stats._lock:
            self._inflight -= 1
            stats.failed_requests += first_failure
            if completed:
                stats.latency.record(elapsed)
        if first_failure:
            request.future.set_exception(outcome)
        if not last:
            return
        self._queue_slots.release()
        if completed:
            request.snapshot.session.stats.record_request(
                elapsed, pages=len(request.order))
            request.future.set_result(
                [request.by_doc[doc_id] for doc_id in request.order])
