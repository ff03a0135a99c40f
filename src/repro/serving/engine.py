"""Thread-safe serving engine — the concurrent online request path.

:class:`~repro.pipeline.session.ResolutionSession` serves one request at
a time; a deployment facing "millions of users" needs the same request
path under concurrent traffic.  :class:`ServingEngine` provides it with
three mechanisms:

**Two-phase execution with fine-grained locking.**  The engine serves
no page itself: it schedules the session's two phases.  Every request
passes :meth:`ResolutionSession.admit` under one engine-wide lock —
route, reject, look up or *reserve* the name's slot (so eviction
accounting happens in admission order), index — and the per-name
**units** it returns are appended to that name's FIFO *lane*.  All of
this is pure bookkeeping (no scoring), so the critical section is
microseconds.  The expensive work — :meth:`ResolutionSession.process`:
extraction, bootstrap predicts, incremental scoring — runs outside the
admission lock, serialized **per name** by the lane (so two requests for
different names score in parallel, while a same-name stampede of cold
requests triggers exactly one bootstrap).

**Request coalescing.**  The first thread to reach an idle lane becomes
its *leader*: it drains up to ``max_batch`` queued units (optionally
waiting ``batch_window`` seconds for stragglers while other requests are
in flight) and hands the whole micro-batch to one ``process`` call,
which scores two or more feature-carrying pages as one burst
(:meth:`~repro.core.incremental.IncrementalResolver.score_burst`) —
every page prepared once per batch instead of once per request.
Follower threads just wait on their futures.  Batches stay
bit-identical to sequential per-page serving by construction.

**Deterministic replay.**  Because every state decision (routing, LRU,
eviction, bootstrap-vs-incremental) is made at admission in a single
serialized order, and per-name processing follows lane FIFO order,
replaying the admission journal through a plain serial
``ResolutionSession`` — the same ``admit`` / ``process`` code under the
one-caller schedule — reproduces the engine's clusters *bit for bit*:
any interleaving of concurrent callers is equivalent to the serial
execution of its admission order.  Enable ``record_journal=True`` and
check with :func:`~repro.serving.replay.verify_serial_equivalence`;
``tests/serving/`` and ``benchmarks/test_bench_serving.py`` assert it
under thread-pool hammering.

Model hot-swap is a pointer move: :meth:`ServingEngine.swap` builds the
next :class:`~repro.serving.snapshot.ModelSnapshot` off-line and
publishes it under the admission lock — in-flight requests finish on the
snapshot they were admitted under, new requests land on the replacement,
and prepared state rebuilds lazily per name.

Typical deployment::

    engine = ServingEngine(model, pipeline=pipeline, max_batch=16)
    # any number of threads:
    assignments = engine.resolve(request.pages)
    # control plane, any time, without draining traffic:
    engine.swap(refit_model)
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict, deque
from concurrent.futures import Future
from dataclasses import dataclass, field
from itertools import groupby

from repro.core.incremental import Assignment
from repro.core.model import ResolverModel
from repro.corpus.documents import NameCollection, WebPage
from repro.extraction.features import PageFeatures
from repro.extraction.pipeline import ExtractionPipeline
from repro.metrics.clusterings import Clustering
from repro.pipeline.session import AdmittedUnit, as_page_list
from repro.runtime.stats import LatencyReservoir
from repro.serving.snapshot import ModelSnapshot

__all__ = ["EngineStats", "ServingEngine"]


@dataclass
class EngineStats:
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
        seconds_total: summed request latencies (admission → future).
        latency: bounded reservoir feeding the percentile properties.
    """

    requests: int = 0
    pages: int = 0
    units: int = 0
    failed_requests: int = 0
    scoring_batches: int = 0
    coalesced_batches: int = 0
    coalesced_pages: int = 0
    max_batch_pages: int = 0
    bootstraps: int = 0
    lru_hits: int = 0
    lru_misses: int = 0
    swaps: int = 0
    swap_stall_seconds: float = 0.0
    max_inflight: int = 0
    seconds_total: float = 0.0
    latency: LatencyReservoir = field(default_factory=LatencyReservoir)

    @property
    def mean_request_seconds(self) -> float:
        """Mean request latency (0.0 before the first completion)."""
        completed = self.requests - self.failed_requests
        if completed <= 0:
            return 0.0
        return self.seconds_total / completed

    @property
    def p50_request_seconds(self) -> float:
        """Median request latency over the reservoir sample."""
        return self.latency.percentile(50)

    @property
    def p95_request_seconds(self) -> float:
        """95th-percentile request latency over the reservoir sample."""
        return self.latency.percentile(95)

    @property
    def p99_request_seconds(self) -> float:
        """99th-percentile request latency over the reservoir sample."""
        return self.latency.percentile(99)

    @property
    def lru_hit_rate(self) -> float:
        """Fraction of admissions served from live prepared state."""
        total = self.lru_hits + self.lru_misses
        if total == 0:
            return 0.0
        return self.lru_hits / total

    @property
    def mean_coalesced_pages(self) -> float:
        """Mean pages per multi-page batch (0.0 when none coalesced)."""
        if self.coalesced_batches == 0:
            return 0.0
        return self.coalesced_pages / self.coalesced_batches

    def to_dict(self) -> dict[str, object]:
        """JSON-serializable snapshot (benchmarks and the CLI)."""
        return {
            "requests": self.requests,
            "pages": self.pages,
            "units": self.units,
            "failed_requests": self.failed_requests,
            "scoring_batches": self.scoring_batches,
            "coalesced_batches": self.coalesced_batches,
            "coalesced_pages": self.coalesced_pages,
            "mean_coalesced_pages": self.mean_coalesced_pages,
            "max_batch_pages": self.max_batch_pages,
            "bootstraps": self.bootstraps,
            "lru_hit_rate": self.lru_hit_rate,
            "swaps": self.swaps,
            "swap_stall_seconds": self.swap_stall_seconds,
            "max_inflight": self.max_inflight,
            "mean_request_seconds": self.mean_request_seconds,
            "p50_request_seconds": self.p50_request_seconds,
            "p95_request_seconds": self.p95_request_seconds,
            "p99_request_seconds": self.p99_request_seconds,
        }

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


class _Lane:
    """One name's FIFO unit queue plus its processing mutex.

    ``busy`` is the per-name lock: the thread that flips it becomes the
    lane's *leader* and processes queued units in admission order;
    everyone else waits on ``cond``.  ``refs`` counts admitted units not
    yet completed, so idle lanes can be dropped (names are unbounded in
    a long-lived process; lanes must not leak).
    """

    __slots__ = ("cond", "pending", "busy", "refs", "last_batch")

    def __init__(self):
        self.cond = threading.Condition()
        self.pending: deque[_Unit] = deque()
        self.busy = False
        self.refs = 0
        #: size of the last drained batch — the window wait's target.
        #: A closed-loop stampede that just produced an N-unit batch is
        #: about to produce another; one caller (last_batch <= 1) never
        #: waits.  Adapts both ways: organic queueing grows it, a
        #: window expiry with fewer arrivals shrinks it.
        self.last_batch = 0


@dataclass
class _Unit:
    """One admitted unit on its way through a lane — the scheduling grain."""

    seq: int
    admitted: AdmittedUnit
    request: "_Request"
    lane: _Lane
    journal_entry: dict | None = None
    done: bool = False


class _Request:
    """Aggregates a submit call's units back into one ordered future."""

    __slots__ = ("future", "order", "by_doc", "remaining", "failed",
                 "lock", "started", "snapshot", "units")

    def __init__(self, order: list[str], n_units: int,
                 snapshot: ModelSnapshot):
        self.future: Future = Future()
        self.order = order
        self.by_doc: dict[str, Assignment] = {}
        self.remaining = n_units
        self.failed = False
        self.lock = threading.Lock()
        self.started = time.perf_counter()
        self.snapshot = snapshot
        self.units: list[_Unit] = []


class ServingEngine:
    """Serve concurrent resolve traffic from hot-swappable snapshots.

    Args:
        model: the initial fitted model (snapshot version 1).
        pipeline: extraction pipeline for raw pages (as for
            :class:`ResolutionSession`).
        max_blocks: per-snapshot LRU bound on prepared name blocks.
        model_block: fitted block serving names the model was never
            fitted on (as for :class:`ResolutionSession`).
        max_batch: most units one leader merges into a scoring batch.
        batch_window: seconds a leader waits for stragglers before
            flushing a non-full batch.  The wait targets the lane's
            *recent* batch size — a lane that just served N concurrent
            requests expects the same closed-loop callers to return, so
            it holds the batch open (up to the window) until N queue
            again; a lane serving one caller never waits.  0.0
            (default) disables the wait entirely; queued units still
            coalesce naturally while a leader is busy.
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
                 batch_window: float = 0.0,
                 queue_depth: int = 1024,
                 record_journal: bool = False):
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if batch_window < 0:
            raise ValueError(
                f"batch_window must be >= 0, got {batch_window}")
        if queue_depth < 1:
            raise ValueError(f"queue_depth must be >= 1, got {queue_depth}")
        self.max_blocks = max_blocks
        self.model_block = model_block
        self.max_batch = max_batch
        self.batch_window = batch_window
        self._admission = threading.Lock()
        self._swap_lock = threading.Lock()
        self._stats_lock = threading.Lock()
        self._queue_slots = threading.BoundedSemaphore(queue_depth)
        self._lanes: dict[str, _Lane] = {}
        # Batch-size memory surviving lane garbage collection: lanes die
        # the moment a round of closed-loop callers completes, which is
        # exactly when the next round is about to stampede the same
        # name.  Bounded LRU so dead names cannot accumulate.
        self._batch_memory: "OrderedDict[str, int]" = OrderedDict()
        self._inflight = 0
        self._seq = 0
        self._snapshot = ModelSnapshot.create(
            1, model, pipeline=pipeline, max_blocks=max_blocks,
            model_block=model_block)
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
        from any number of threads.  The calling thread participates in
        lane processing (leader/follower), so throughput scales with
        callers and no background threads exist to manage.

        Raises:
            KeyError: unknown query name / unroutable nameless page —
                rejected atomically at admission, before any page of the
                request is assigned.
            ValueError: duplicate doc id, or extraction needed without a
                pipeline (surfaced through the request future).
        """
        request = self._admit(pages, features)
        for unit in request.units:
            self._run_lane(unit.admitted.query_name, unit.lane,
                           lambda: unit.done)
        return request.future.result()

    def submit(
        self,
        pages: WebPage | NameCollection | list[WebPage],
        features: dict[str, PageFeatures] | None = None,
    ) -> Future:
        """Admit a request and return its future without processing it.

        The work executes when any thread next drives the name's lane —
        a concurrent :meth:`resolve` caller, or an explicit
        :meth:`flush`.  Admission errors (unknown name, backpressure)
        raise synchronously, exactly like :meth:`resolve`.
        """
        return self._admit(pages, features).future

    def flush(self) -> None:
        """Process every queued unit (completes outstanding futures)."""
        for name, lane in list(self._lanes.items()):
            self._run_lane(name, lane,
                           lambda: not lane.pending and not lane.busy)

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
            started = time.perf_counter()
            with self._admission:
                self._snapshot = replacement
                self.snapshots[replacement.version] = replacement
            stall = time.perf_counter() - started
        with self._stats_lock:
            self.stats.swaps += 1
            self.stats.swap_stall_seconds += stall
        return replacement

    def clusters(self, query_name: str) -> Clustering:
        """The live snapshot's current partition of a prepared name."""
        with self._admission:
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
        for work in admitted:
            self._seq += 1
            lane = self._lanes.get(work.query_name)
            if lane is None:
                lane = _Lane()
                lane.last_batch = self._batch_memory.get(work.query_name, 0)
                self._lanes[work.query_name] = lane
            unit = _Unit(seq=self._seq, admitted=work, request=request,
                         lane=lane)
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
            request.units.append(unit)
            with lane.cond:
                lane.pending.append(unit)
                lane.refs += 1
                lane.cond.notify_all()
        snapshot.requests_admitted += 1
        misses = sum(work.cold for work in admitted)
        with self._stats_lock:
            self.stats.requests += 1
            self.stats.pages += len(page_list)
            self.stats.units += len(admitted)
            self.stats.lru_misses += misses
            self.stats.lru_hits += len(admitted) - misses
            self._inflight += len(admitted)
            self.stats.max_inflight = max(self.stats.max_inflight,
                                          self._inflight)
        return request

    # -- processing (phase 2: scoring outside the admission lock) --------

    def _run_lane(self, name: str, lane: _Lane, finished) -> None:
        """Lead ``lane``, or wait on its leader, until ``finished()``."""
        while True:
            with lane.cond:
                while lane.busy and not finished():
                    lane.cond.wait()
                if finished():
                    return
                lane.busy = True
            try:
                self._lead(lane)
            finally:
                with lane.cond:
                    lane.busy = False
                    lane.cond.notify_all()
            self._maybe_drop_lane(name, lane)

    def _lead(self, lane: _Lane) -> None:
        """As lane leader: optionally wait the window, drain, process."""
        if self.batch_window > 0:
            deadline = time.perf_counter() + self.batch_window
            with lane.cond:
                # Hold the batch open for the callers the lane just
                # served: after an N-unit batch completes, its N
                # closed-loop callers are re-admitting *right now*, but
                # the instantaneous queue can look empty before their
                # threads get scheduled.  Waiting for the recent batch
                # size (never past the window) turns those would-be
                # singleton flushes into full coalesced batches; a lane
                # with one caller has last_batch <= 1 and never waits.
                # The floor of 2 whenever anything else is in flight
                # keeps a fresh lane from locking into singleton service
                # under lock-step scheduling before any batch has formed
                # to seed last_batch.
                floor = 2 if self._inflight > 1 else 1
                target = min(self.max_batch, max(lane.last_batch, floor))
                while len(lane.pending) < target:
                    remaining = deadline - time.perf_counter()
                    if remaining <= 0:
                        break
                    lane.cond.wait(remaining)
        with lane.cond:
            batch: list[_Unit] = []
            while lane.pending and len(batch) < self.max_batch:
                batch.append(lane.pending.popleft())
            if batch:
                lane.last_batch = len(batch)
        # Consecutive units sharing a prepared slot form one ``process``
        # call; the slot changes only across evict→rebuild or swap
        # boundaries, so runs are contiguous in admission order.
        for _, group in groupby(
                batch, key=lambda unit: id(unit.admitted.prepared)):
            self._process_group(list(group))

    def _process_group(self, units: list[_Unit]) -> None:
        session = units[0].request.snapshot.session
        try:
            done = session.process([unit.admitted for unit in units])
        except BaseException as error:
            # Nothing ``process`` foresees; no future may be left hanging.
            for unit in units:
                self._settle(unit, error)
            if not isinstance(error, Exception):
                raise
            return
        with self._stats_lock:
            stats = self.stats
            stats.bootstraps += done.bootstrap is not None
            stats.scoring_batches += ((done.bootstrap == "batch")
                                      + (done.added_pages > 0))
            stats.max_batch_pages = max(stats.max_batch_pages,
                                        done.added_pages)
            if done.swept:
                stats.coalesced_batches += 1
                stats.coalesced_pages += done.added_pages
        for unit, outcome in zip(units, done.outcomes):
            self._settle(unit, outcome)

    def _settle(self, unit: _Unit,
                outcome: list[Assignment] | BaseException) -> None:
        """Fold one unit's outcome into its request: the first failure
        fails the future, the last unit frees the queue slot and, when
        none failed, resolves the future in input order."""
        failed = isinstance(outcome, BaseException)
        if unit.journal_entry is not None and not failed:
            unit.journal_entry["assignments"] = list(outcome)
        request = unit.request
        with request.lock:
            if unit.done:
                return
            unit.done = True
            if not failed:
                for assignment in outcome:
                    request.by_doc[assignment.doc_id] = assignment
            first_failure = failed and not request.failed
            request.failed |= failed
            request.remaining -= 1
            last = request.remaining == 0
        with self._stats_lock:
            self._inflight -= 1
            self.stats.failed_requests += first_failure
        with unit.lane.cond:
            unit.lane.refs -= 1
            unit.lane.cond.notify_all()
        if first_failure:
            request.future.set_exception(outcome)
        if not last:
            return
        self._queue_slots.release()
        if not request.failed:
            elapsed = time.perf_counter() - request.started
            with self._stats_lock:
                self.stats.seconds_total += elapsed
                self.stats.latency.record(elapsed)
            request.snapshot.session.stats.record_request(
                elapsed, pages=len(request.order))
            request.future.set_result(
                [request.by_doc[doc_id] for doc_id in request.order])

    def _maybe_drop_lane(self, name: str, lane: _Lane) -> None:
        """Garbage-collect an idle lane (names are unbounded)."""
        with self._admission:
            with lane.cond:
                if (not lane.busy and not lane.pending and lane.refs == 0
                        and self._lanes.get(name) is lane):
                    del self._lanes[name]
                    if lane.last_batch > 1:
                        self._batch_memory[name] = lane.last_batch
                        self._batch_memory.move_to_end(name)
                        while len(self._batch_memory) > 4 * self.max_blocks:
                            self._batch_memory.popitem(last=False)
                    else:
                        self._batch_memory.pop(name, None)
