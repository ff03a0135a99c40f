"""Block executors — how per-block work is scheduled.

Blocking makes the pipeline embarrassingly parallel: blocks never share
pairs, so fitting, predicting and context preparation are independent
per-block tasks.  A :class:`BlockExecutor` runs a picklable task function
over a sequence of payloads and returns results *in payload order*, which
is what keeps parallel runs bit-identical to serial ones — merge order
never depends on completion order.

There are two backends, and one constructor picks between them:
:func:`executor_for_workers` builds the serial loop for one worker and
a process pool for more.  :func:`executor_from_config` maps a
``ResolverConfig``'s ``executor`` / ``workers`` (and the
``REPRO_WORKERS`` environment default) onto that count; the CLI's
``--workers`` calls the constructor directly.

* ``"serial"`` — plain in-process loop, the default.
* ``"process"`` — a **persistent** ``concurrent.futures`` process pool
  using the **fork** start method: the cheapest start, and workers
  inherit plugins registered at run time (a custom similarity function
  or clusterer).  Results do not depend on the start method —
  a spawned worker draws its own string-hash seed and returns the same
  bits.  On platforms without fork the backend degrades to an
  in-process loop, so run-time registrations stay visible.

The process pool forks **once** per executor instance and is reused by
every subsequent ``run`` call — collection passes sharing one executor
share one fork wave (:attr:`BlockExecutor.fork_waves` counts them).
Payloads are dispatched as *chunks* through the pool's own pipe —
contiguous slices in payload order, or, when the caller supplies
per-payload ``weights``, largest-first bins packed so one giant namesake
block cannot serialize the tail of the schedule.  A chunk is one
pickle, made in the calling process: what its payloads share (a config,
an extraction pipeline) crosses once per chunk, a payload that cannot
pickle raises in the caller, and a worker unpickles only the chunks it
runs.  Nothing is published beside the pipe — no shared-memory segment,
no scratch file.

Worker accounting is honest: ``effective_workers`` is the requested
count capped at :func:`available_cores`, and when the cap degrades a
parallel request all the way to serial execution a
:class:`DegradedParallelismWarning` fires instead of the run silently
losing its parallelism.  :func:`core_report` additionally records when
the scheduling affinity (`sched_getaffinity`, e.g. a container cpuset)
grants fewer cores than the host physically has.
"""

from __future__ import annotations

import heapq
import math
import multiprocessing
import os
import pickle
import warnings
import weakref
from abc import ABC, abstractmethod
from collections.abc import Callable, Sequence
from concurrent.futures import ProcessPoolExecutor
from typing import Any

#: A block task: a module-level (picklable) function of one payload.
BlockTask = Callable[[Any], Any]

#: Chunks dispatched per effective worker: small enough that chunk
#: granularity load-balances, large enough that per-chunk pickling is
#: amortized over many payloads.
CHUNKS_PER_WORKER = 4


class DegradedParallelismWarning(RuntimeWarning):
    """A parallel request silently became serial (core cap, no fork)."""


class BlockExecutor(ABC):
    """Schedules independent block-level tasks.

    Attributes:
        name: the config string of the backend.
        workers: configured worker count (1 for serial).
        fork_waves: worker-pool creations over the executor's lifetime
            (0 for in-process backends).
    """

    name: str = "?"
    fork_waves: int = 0

    def __init__(self, workers: int = 1):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers

    @property
    def effective_workers(self) -> int:
        """Workers actually scheduled (the configured count here)."""
        return self.workers

    @property
    def is_serial(self) -> bool:
        """True when tasks run in the calling process, one at a time."""
        return self.effective_workers <= 1

    @abstractmethod
    def run(self, task: BlockTask, payloads: Sequence[Any],
            weights: Sequence[int] | None = None) -> list[Any]:
        """Run ``task`` over every payload, results in payload order.

        ``task`` must be picklable (a module-level function, or a
        ``functools.partial`` of one) for the process backend; payloads
        and results likewise.  ``weights`` (optional, parallel backends
        only) gives each payload's relative cost — e.g. a block's page
        count — so the scheduler can dispatch the heaviest work first;
        it never affects results or their order.
        """

    def close(self) -> None:
        """Release any pooled resources (no-op for in-process backends)."""

    def __enter__(self) -> "BlockExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"{type(self).__name__}(workers={self.workers})"


class SerialExecutor(BlockExecutor):
    """Run every task inline, in payload order (the reference backend)."""

    name = "serial"

    def __init__(self, workers: int = 1):
        # A worker count > 1 is meaningless here; normalize so stats and
        # is_serial stay truthful.
        super().__init__(workers=1)

    def run(self, task: BlockTask, payloads: Sequence[Any],
            weights: Sequence[int] | None = None) -> list[Any]:
        return [task(payload) for payload in payloads]


def _fork_context() -> multiprocessing.context.BaseContext | None:
    """The fork multiprocessing context, or ``None`` where unsupported."""
    try:
        if "fork" in multiprocessing.get_all_start_methods():
            return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - platform quirk
        pass
    return None


def available_cores() -> int:
    """CPU cores this process may schedule on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def host_cores() -> int:
    """CPU cores the host physically reports (affinity-blind)."""
    return os.cpu_count() or 1


def core_report() -> dict[str, object]:
    """Requested-vs-granted core accounting for benchmarks and stats.

    ``cpuset_limited`` is true when the scheduling affinity grants fewer
    cores than the host has — the container-cpuset situation that used
    to surface only as an unexplained ``effective_workers: 1``.

    Payloads have one wire format, so the report carries no payload
    knob; the runtime's only knobs are ``REPRO_WORKERS``
    (:func:`executor_from_config`) and ``REPRO_BACKEND``.  Nothing lifts
    the core cap outside the tests' ``ProcessPoolBlockExecutor(
    oversubscribe=True)`` seam (the ``oversubscribe`` config field and
    ``--oversubscribe`` flag were deleted).
    """
    available = available_cores()
    host = host_cores()
    return {
        "available_cores": available,
        "host_cores": host,
        "cpuset_limited": available < host,
    }


def pack_chunks(n: int, n_chunks: int,
                weights: Sequence[int] | None = None) -> list[list[int]]:
    """Partition payload indices ``0..n-1`` into dispatch chunks.

    Without weights: contiguous slices in payload order (cheap, cache
    friendly).  With weights: classic LPT bin packing — indices sorted
    by descending weight are placed greedily onto the currently lightest
    chunk, and chunks are returned heaviest-first so the biggest bins
    hit the pool before the tail.  Deterministic: ties break on index.
    Results are reordered by index afterwards, so packing never affects
    output order.
    """
    n_chunks = max(1, min(n, n_chunks))
    if weights is None:
        size = math.ceil(n / n_chunks)
        return [list(range(start, min(start + size, n)))
                for start in range(0, n, size)]
    if len(weights) != n:
        raise ValueError(
            f"got {len(weights)} weights for {n} payloads")
    order = sorted(range(n), key=lambda index: (-weights[index], index))
    heap = [(0, chunk_index) for chunk_index in range(n_chunks)]
    chunks: list[list[int]] = [[] for _ in range(n_chunks)]
    totals = [0] * n_chunks
    for index in order:
        total, chunk_index = heapq.heappop(heap)
        chunks[chunk_index].append(index)
        totals[chunk_index] = total + weights[index]
        heapq.heappush(heap, (totals[chunk_index], chunk_index))
    packed = [chunk for chunk in chunks if chunk]
    packed.sort(key=lambda chunk: (-sum(weights[i] for i in chunk),
                                   chunk[0]))
    return packed


def _run_chunk(chunk: bytes) -> list[Any]:
    """Worker body: one pickled ``(task, payloads)`` dispatch chunk,
    results in chunk order."""
    task, payloads = pickle.loads(chunk)
    return [task(payload) for payload in payloads]


def _shutdown_pool(pool: ProcessPoolExecutor) -> None:
    pool.shutdown(wait=True, cancel_futures=True)


class ProcessPoolBlockExecutor(BlockExecutor):
    """Fan block tasks out to a persistent pool of forked workers.

    The pool is created **once**, on the first parallel ``run``, and
    reused by every later call — an executor threaded through a whole
    fit/predict run pays exactly one fork wave for all of its passes
    (:attr:`fork_waves` counts waves; worker state like imported
    modules and loaded registries amortizes across passes).  ``close``
    (or context-manager exit, or garbage collection) shuts the pool
    down; a run that raises shuts it down eagerly so no orphaned
    workers outlive the failure.

    Payloads are dispatched as chunks (:func:`pack_chunks`) with an
    explicit :meth:`chunksize` derived from the payload count and the
    effective worker count — never ``map``'s pickle-per-payload default
    — and results are merged in payload order regardless of completion
    order.

    Block tasks are CPU-bound, so scheduling more workers than the host
    has cores only adds pickling and context-switch overhead; the
    effective worker count is therefore capped at the core count unless
    ``oversubscribe=True`` (the seam tests use to force a real pool on
    a one-core host).  When the cap leaves a single effective
    worker (a one-core host), :attr:`is_serial` turns true, callers take
    their serial fast path, and a :class:`DegradedParallelismWarning`
    fires once so ``--workers 4`` never silently means serial.
    """

    name = "process"

    def __init__(self, workers: int = 2, oversubscribe: bool = False):
        super().__init__(workers=workers)
        self.oversubscribe = oversubscribe
        self._pool: ProcessPoolExecutor | None = None
        self._pool_finalizer = None
        self._warned = False

    @property
    def effective_workers(self) -> int:
        """Workers actually scheduled (requested, capped at cores)."""
        if self.oversubscribe:
            return self.workers
        return min(self.workers, available_cores())

    def chunksize(self, n_payloads: int) -> int:
        """Payloads per dispatch chunk for an ``n_payloads`` fan-out.

        ``len(payloads) / (effective_workers * CHUNKS_PER_WORKER)``,
        floored at 1: every worker sees a few chunks (load balancing
        headroom) and per-chunk round-trip costs amortize over many
        payloads instead of paying one pickle round-trip per block.
        """
        lanes = max(1, self.effective_workers) * CHUNKS_PER_WORKER
        return max(1, math.ceil(n_payloads / lanes))

    def _warn_degraded(self, reason: str) -> None:
        if self._warned:
            return
        self._warned = True
        report = core_report()
        warnings.warn(
            f"requested {self.workers} workers but running serially: "
            f"{reason} (affinity grants {report['available_cores']} of "
            f"{report['host_cores']} host cores"
            f"{', cpuset-limited' if report['cpuset_limited'] else ''})",
            DegradedParallelismWarning, stacklevel=3)

    def _ensure_pool(self,
                     context: multiprocessing.context.BaseContext,
                     ) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.effective_workers, mp_context=context)
            self.fork_waves += 1
            self._pool_finalizer = weakref.finalize(
                self, _shutdown_pool, self._pool)
        return self._pool

    def close(self) -> None:
        """Shut the worker pool down (idempotent; joins the workers)."""
        if self._pool_finalizer is not None:
            self._pool_finalizer.detach()
            self._pool_finalizer = None
        if self._pool is not None:
            pool, self._pool = self._pool, None
            _shutdown_pool(pool)

    def run(self, task: BlockTask, payloads: Sequence[Any],
            weights: Sequence[int] | None = None) -> list[Any]:
        n = len(payloads)
        if n == 0:
            return []
        if self.effective_workers <= 1:
            if self.workers > 1 and n > 1:
                self._warn_degraded("core cap left one effective worker")
            return [task(payload) for payload in payloads]
        if n == 1:
            # Single-payload fast path: pool round-trips cannot pay off.
            return [task(payloads[0])]
        context = _fork_context()
        if context is None:  # pragma: no cover - non-fork platforms
            # Spawned children would not see plugins registered at run
            # time; degrade to in-process.
            self._warn_degraded("fork start method unavailable")
            return [task(payload) for payload in payloads]
        pool = self._ensure_pool(context)
        chunks = pack_chunks(n, math.ceil(n / self.chunksize(n)),
                             weights=weights)
        # Bound before the ``try``: a pool broken while idle (a worker
        # killed between runs) raises from the first ``submit``.
        futures = []
        try:
            for chunk in chunks:
                # Pickled here rather than in the pool's feeder thread: a
                # chunk that cannot pickle then raises in the caller, and
                # the pool still shuts down (after a feeder-thread pickling
                # error, ProcessPoolExecutor.shutdown can wait forever).
                futures.append(pool.submit(_run_chunk, pickle.dumps(
                    (task, [payloads[index] for index in chunk]))))
            results: list[Any] = [None] * n
            for chunk, future in zip(chunks, futures):
                for index, value in zip(chunk, future.result()):
                    results[index] = value
        except BaseException:
            # A failing task (or a broken pool) must not leave orphaned
            # workers behind: cancel what has not started, join the rest.
            for future in futures:
                future.cancel()
            self.close()
            raise
        return results


def executor_for_workers(workers: int) -> BlockExecutor:
    """The executor for a ``--workers N`` request: the serial loop for
    one worker, a process pool for more.

    Raises:
        ValueError: for ``workers < 1``.
    """
    if workers == 1:
        return SerialExecutor()
    return ProcessPoolBlockExecutor(workers=workers)


def executor_from_config(config) -> BlockExecutor:
    """The executor a :class:`~repro.core.config.ResolverConfig` selects.

    A ``"process"`` config runs its ``workers`` (serially at 1).  A
    ``"serial"`` config runs the ``REPRO_WORKERS`` environment variable's
    count instead, when set, so a whole process can be switched to parallel
    collection passes without touching configs (parallel execution is
    bit-identical, making this a pure speed knob like ``REPRO_BACKEND``).
    A value that is not an integer >= 1 reads as unset.
    """
    if config.executor == "process":
        return executor_for_workers(config.workers)
    try:
        ambient = int(os.environ.get("REPRO_WORKERS", ""))
    except ValueError:
        ambient = 1
    return executor_for_workers(max(ambient, 1))
