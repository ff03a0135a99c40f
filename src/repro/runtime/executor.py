"""Block executors — how per-block work is scheduled.

Blocking makes the pipeline embarrassingly parallel: blocks never share
pairs, so fitting, predicting and context preparation are independent
per-block tasks.  A :class:`BlockExecutor` runs a picklable task function
over a sequence of payloads and returns results *in payload order*, which
is what keeps parallel runs bit-identical to serial ones — merge order
never depends on completion order.

Backends register in :data:`repro.core.registry.EXECUTORS` and are
selected by ``ResolverConfig.executor`` / ``workers`` or the CLI's
``--workers``:

* ``"serial"`` — plain in-process loop, the default.
* ``"process"`` — a **persistent** ``concurrent.futures`` process pool
  using the **fork** start method: the cheapest start, and workers
  inherit plugins registered at run time (a custom similarity function,
  task kind or clusterer).  Results do not depend on the start method —
  a spawned worker draws its own string-hash seed and returns the same
  bits.  On platforms without fork the backend degrades to an
  in-process loop, so run-time registrations stay visible.

The process pool forks **once** per executor instance and is reused by
every subsequent ``run`` call — collection passes sharing one executor
share one fork wave (:attr:`ProcessPoolBlockExecutor.fork_waves` counts
them; the runtime bench asserts one wave per run).  Payloads are
dispatched as *chunks* — contiguous slices in payload order, or, when
the caller supplies per-payload ``weights``, largest-first bins packed
so one giant namesake block cannot serialize the tail of the schedule.

Worker accounting is honest: ``effective_workers`` is the requested
count capped at :func:`available_cores`, and when the cap degrades a
parallel request all the way to serial execution a
:class:`DegradedParallelismWarning` fires instead of the run silently
losing its parallelism.  :func:`core_report` additionally records when
the scheduling affinity (`sched_getaffinity`, e.g. a container cpuset)
grants fewer cores than the host physically has.

New backends (e.g. a cluster scheduler) plug in with
:func:`~repro.core.registry.register_executor`; see the registry module's
walkthrough.
"""

from __future__ import annotations

import heapq
import math
import multiprocessing
import os
import warnings
import weakref
from abc import ABC, abstractmethod
from collections.abc import Callable, Sequence
from concurrent.futures import ProcessPoolExecutor
from typing import Any

from repro.core.registry import register_executor
from repro.runtime.shards import share_tracker

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
        name: the registry/config string of the backend.
        workers: configured worker count (1 for serial).
    """

    name: str = "?"

    def __init__(self, workers: int = 1):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers

    @property
    def is_serial(self) -> bool:
        """True when tasks run in the calling process, one at a time."""
        return self.workers <= 1

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


@register_executor("serial")
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
    (:func:`env_default_workers`) and ``REPRO_BACKEND``.
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


def _run_chunk(task: BlockTask, payloads: list[Any]) -> list[Any]:
    """Worker body: one dispatch chunk, results in chunk order."""
    return [task(payload) for payload in payloads]


def _shutdown_pool(pool: ProcessPoolExecutor) -> None:
    pool.shutdown(wait=True, cancel_futures=True)


@register_executor("process")
class ProcessPoolBlockExecutor(BlockExecutor):
    """Fan block tasks out to a persistent pool of forked workers.

    The pool is created **once**, on the first parallel ``run``, and
    reused by every later call — an executor threaded through a whole
    fit/predict run pays exactly one fork wave for all of its passes
    (:attr:`fork_waves` counts waves; worker state like loaded
    registries and attached shards amortizes across passes).  ``close``
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
    ``oversubscribe=True``.  When the cap leaves a single effective
    worker (a one-core host), :attr:`is_serial` turns true, callers take
    their serial fast path, and a :class:`DegradedParallelismWarning`
    fires once so ``--workers 4`` never silently means serial.
    """

    name = "process"

    def __init__(self, workers: int = 2, oversubscribe: bool = False):
        super().__init__(workers=workers)
        self.oversubscribe = oversubscribe
        #: Pool creations over this executor's lifetime (fork waves).
        self.fork_waves = 0
        self._pool: ProcessPoolExecutor | None = None
        self._pool_finalizer = None
        self._warned = False

    @property
    def effective_workers(self) -> int:
        """Workers actually scheduled (requested, capped at cores)."""
        if self.oversubscribe:
            return self.workers
        return min(self.workers, available_cores())

    @property
    def is_serial(self) -> bool:
        return self.effective_workers <= 1

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
            share_tracker()
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
            futures = [pool.submit(_run_chunk, task,
                                   [payloads[index] for index in chunk])
                       for chunk in chunks]
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


def env_default_workers() -> int | None:
    """The ``REPRO_WORKERS`` ambient worker count, or ``None`` if unset.

    Like ``REPRO_BACKEND``, a per-process runtime default: it widens
    config-driven executor selection (:func:`executor_from_config`)
    without ever being serialized into models or configs.  Invalid
    values read as unset.
    """
    raw = os.environ.get("REPRO_WORKERS", "").strip()
    if not raw:
        return None
    try:
        value = int(raw)
    except ValueError:
        return None
    return value if value >= 1 else None


def build_executor(name: str = "serial", workers: int = 1,
                   oversubscribe: bool = False) -> BlockExecutor:
    """Instantiate a registered executor backend.

    ``oversubscribe`` is forwarded to backends that accept it (the
    process pool's core-cap override) and ignored by the rest.

    Raises:
        ValueError: for unknown backend names (lists the known ones).
    """
    from repro.core.registry import EXECUTORS
    factory = EXECUTORS.get(name)
    if oversubscribe:
        try:
            return factory(workers=workers, oversubscribe=True)
        except TypeError:
            pass
    return factory(workers=workers)


def executor_for_workers(workers: int,
                         oversubscribe: bool = False) -> BlockExecutor:
    """The natural backend for a ``--workers N`` request."""
    if workers <= 1:
        return build_executor("serial", workers=1)
    return build_executor("process", workers=workers,
                          oversubscribe=oversubscribe)


def executor_from_config(config) -> BlockExecutor:
    """The executor a :class:`~repro.core.config.ResolverConfig` selects.

    A config left at its serial defaults additionally honors the
    ``REPRO_WORKERS`` environment default, so a whole process can be
    switched to parallel collection passes without touching configs or
    saved models (parallel execution is bit-identical, making this a
    pure speed knob like ``REPRO_BACKEND``).
    """
    workers = config.workers
    name = config.executor
    oversubscribe = getattr(config, "oversubscribe", False)
    if name == "serial" and workers <= 1:
        ambient = env_default_workers()
        if ambient is not None and ambient > 1:
            return build_executor("process", workers=ambient,
                                  oversubscribe=oversubscribe)
    return build_executor(name, workers=workers, oversubscribe=oversubscribe)
