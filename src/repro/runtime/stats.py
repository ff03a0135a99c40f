"""The package's one telemetry core.

:data:`clock` is the one clock every measurement reads (:class:`Timer`
measures a block with it); :func:`rate` is the zero-safe ratio behind
every hit rate and mean; :class:`LatencyReservoir` keeps bounded request
latencies with their total.  :class:`StatsRecord` is the base of the four
stats records — :class:`TaskStats` and :class:`RunStats` here,
:class:`~repro.pipeline.session.SessionStats` and
:class:`~repro.serving.engine.EngineStats` — whose fields stay plain
attributes, so a reader polls a live record without a call.
"""

from __future__ import annotations

import math
import random
import threading
import time
from dataclasses import dataclass, field, fields
from typing import ClassVar

#: The clock every measurement reads: monotonic seconds at the finest
#: resolution the platform offers.  :class:`Timer` reads it around a
#: ``with`` block; code whose start and end live apart (a request's
#: admission and completion, a task body) reads it directly.
clock = time.perf_counter


def _keep(mine, theirs):
    return mine


def _add(mine, theirs):
    if isinstance(mine, dict):
        return {**mine, **{key: mine.get(key, 0) + value
                           for key, value in theirs.items()}}
    return mine + theirs


#: ``field(metadata=...)`` markers for :meth:`StatsRecord.merged` and
#: :meth:`StatsRecord.to_dict`.
KEEP = {"merge": _keep}
MAX = {"merge": max}
HIDDEN = {"export": False}


class Timer:
    """``with Timer() as timer: ...`` leaves the block's wall time on
    ``timer.seconds``."""

    __slots__ = ("started", "seconds")

    def __enter__(self) -> "Timer":
        self.started = clock()
        return self

    def __exit__(self, *exc_info) -> None:
        self.seconds = clock() - self.started


def rate(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, or 0.0 when nothing was counted."""
    return numerator / denominator if denominator else 0.0


def percentile(samples: "list[float]", q: float) -> float:
    """Nearest-rank percentile of ``samples`` (0.0 for an empty list).

    ``q`` is in percent (50 -> median).  Nearest-rank keeps the value an
    actual observed sample — the convention latency dashboards use — and
    is exact for the small reservoirs kept here.
    """
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


class LatencyReservoir:
    """Bounded uniform sample of per-request latencies, plus their total.

    A serving process must answer "what is p99 right now?" without
    holding every latency it ever measured; Vitter's Algorithm R keeps a
    fixed-size uniform sample of the stream so percentiles stay
    representative at O(capacity) memory, while the total and mean cover
    every observation.  The replacement choices come from a private
    seeded :class:`random.Random`, so two sessions fed the identical
    latency stream report identical percentiles — benchmark records stay
    reproducible.
    """

    __slots__ = ("capacity", "total", "_samples", "_seen", "_random")

    def __init__(self, capacity: int = 2048, seed: int = 0):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        #: sum of every recorded observation.
        self.total = 0.0
        self._samples: list[float] = []
        self._seen = 0
        self._random = random.Random(seed)

    def record(self, value: float) -> None:
        """Fold one observation into the total and the reservoir."""
        self._seen += 1
        self.total += value
        if len(self._samples) < self.capacity:
            self._samples.append(value)
            return
        slot = self._random.randrange(self._seen)
        if slot < self.capacity:
            self._samples[slot] = value

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile over the current sample (0.0 empty)."""
        return percentile(self._samples, q)

    @property
    def count(self) -> int:
        """Observations recorded over the reservoir's lifetime."""
        return self._seen

    @property
    def mean(self) -> float:
        """Mean of every observation (0.0 before the first)."""
        return rate(self.total, self._seen)

    def samples(self) -> list[float]:
        """A copy of the current sample (at most ``capacity`` values)."""
        return list(self._samples)

    def __len__(self) -> int:
        return len(self._samples)

    def __repr__(self) -> str:
        return (f"LatencyReservoir({len(self._samples)}/{self.capacity} "
                f"samples, {self._seen} seen)")


class StatsRecord:
    """Base of the stats records (each a dataclass).

    ``to_dict`` exports every field not marked :data:`HIDDEN`, then the
    properties a record names in ``derived``.  ``merged`` combines two
    records field by field: numbers add, dicts add per key, fields marked
    :data:`KEEP` and anything else keep this record's value, and a
    :data:`MAX` field keeps the larger.  ``fold`` adds counter deltas
    under the record's own lock; a record's hot paths take that lock
    (``_lock``) directly to fold several counters in one acquisition.
    """

    #: properties ``to_dict`` exports after the fields.
    derived: ClassVar[tuple[str, ...]] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "_lock", threading.Lock())

    # A lock does not pickle: a record crossing a process boundary (a
    # worker's TaskStats) arrives with a fresh one.
    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        del state["_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.__post_init__()

    def fold(self, **deltas: float) -> None:
        """Add each delta to its counter, atomically."""
        with self._lock:
            for name, delta in deltas.items():
                setattr(self, name, getattr(self, name) + delta)

    def to_dict(self) -> dict[str, object]:
        """JSON-serializable snapshot (benchmarks, the CLI)."""
        payload: dict[str, object] = {}
        for entry in fields(self):
            if entry.metadata.get("export", True):
                value = getattr(self, entry.name)
                if isinstance(value, StatsRecord):
                    value = value.to_dict()
                elif isinstance(value, dict):
                    value = dict(value)
                payload[entry.name] = value
        for name in self.derived:
            payload[name] = getattr(self, name)
        return payload

    def merged(self, other, **overrides):
        """A new record combining this one and ``other`` (see the class
        docstring for the rules); ``overrides`` set fields outright."""
        values = {}
        for entry in fields(self):
            mine = getattr(self, entry.name)
            counts = (isinstance(mine, (int, float, dict))
                      and not isinstance(mine, bool))
            rule = entry.metadata.get("merge", _add if counts else _keep)
            values[entry.name] = rule(mine, getattr(other, entry.name))
        return type(self)(**{**values, **overrides})


@dataclass
class TaskStats(StatsRecord):
    """Cost of one block-level task, reported by executor workers.

    Worker processes cannot update the parent's counters, so
    each task measures itself and the scheduling side aggregates the
    results into a :class:`RunStats`.
    """

    query_name: str
    seconds: float = 0.0
    pairs_scored: int = 0


@dataclass
class RunStats(StatsRecord):
    """Aggregate cost of one engine pass over a collection's blocks.

    Attributes:
        phase: what the pass did — ``"prepare"``, ``"fit"``, ``"predict"``
            or ``"evaluate"``.
        executor: executor backend name the pass ran under.
        backend: scoring backend name the pass scored with (see
            :mod:`repro.similarity.backends`).
        workers: worker count the executor was configured with (what the
            run *requested*).
        effective_workers: workers actually scheduled after the core cap
            (1 for serial backends; honest accounting means this can be
            smaller than ``workers`` and the record says so).
        available_cores: cores the process's scheduling affinity grants.
        host_cores: cores the host physically reports; a gap between
            this and ``available_cores`` means a cpuset/container limit.
        cpuset_limited: ``available_cores < host_cores``.
        fork_waves: worker-pool creations this pass caused (0 for
            serial; a persistent pool shared across passes reports 1 on
            the first pass and 0 on the rest).
        wall_seconds: end-to-end wall time of the pass.
        n_blocks: number of blocks scheduled.
        pairs_scored: pairwise similarity values the pass computed
            (graphs a caller supplied count none).
        per_block_seconds: wall time per query name (in the parallel
            backends this is each task's own clock, so the sum can exceed
            ``wall_seconds``).
        shard_bytes_published: always 0.  A pass ships its payloads
            through the pool's pipe and publishes no shard; the field
            stays only because the frozen benchmark harness
            (``bench/layers.py``) reads it.
        plane_fallback_payloads: always 0.  Payloads have one wire
            format, the pickled chunk, so nothing can fall back; the
            field stays only because the frozen benchmark harness
            (``bench/layers.py``) reads it.
    """

    phase: str
    executor: str = "serial"
    backend: str = ""
    workers: int = field(default=1, metadata=KEEP)
    effective_workers: int = field(default=1, metadata=MAX)
    available_cores: int = field(default=1, metadata=KEEP)
    host_cores: int = field(default=1, metadata=KEEP)
    cpuset_limited: bool = False
    fork_waves: int = 0
    wall_seconds: float = 0.0
    n_blocks: int = 0
    pairs_scored: int = 0
    per_block_seconds: dict[str, float] = field(default_factory=dict)
    shard_bytes_published: int = 0
    plane_fallback_payloads: int = 0

    @classmethod
    def for_executor(cls, phase: str, executor,
                     backend: str = "") -> "RunStats":
        """A record pre-filled with a
        :class:`~repro.runtime.executor.BlockExecutor`'s worker
        accounting and the scoring ``backend``'s name.

        ``fork_waves`` captures the executor's *current* wave count;
        passes that reuse a persistent pool subtract their starting count
        to report only the waves they caused (see ``finish_executor``).
        """
        from repro.runtime.executor import core_report
        report = core_report()
        return cls(
            phase=phase,
            executor=executor.name,
            backend=backend,
            workers=executor.workers,
            effective_workers=executor.effective_workers,
            available_cores=report["available_cores"],
            host_cores=report["host_cores"],
            cpuset_limited=report["cpuset_limited"],
            fork_waves=executor.fork_waves,
        )

    def finish_executor(self, executor) -> None:
        """Convert ``fork_waves`` from a snapshot into this pass's delta.

        Called after the executor ran: ``for_executor`` stored the wave
        count *before* the pass; the difference to the executor's count
        now is how many fork waves this pass itself triggered.
        """
        self.fork_waves = executor.fork_waves - self.fork_waves

    def add_task(self, task: TaskStats) -> None:
        """Fold one block task's numbers into the aggregate."""
        self.n_blocks += 1
        self.pairs_scored += task.pairs_scored
        self.per_block_seconds[task.query_name] = (
            self.per_block_seconds.get(task.query_name, 0.0) + task.seconds)

    def summary(self) -> str:
        """One line for CLI output."""
        workers = f"workers={self.workers}"
        if self.effective_workers != self.workers:
            workers += f"->{self.effective_workers}"
        return (f"[{self.phase}] {self.n_blocks} blocks in "
                f"{self.wall_seconds:.2f}s via {self.executor}"
                f"({workers}); "
                f"{self.pairs_scored} pairs scored")


def _latency_percentile(q: int) -> property:
    return property(lambda self: self.latency.percentile(q),
                    doc=f"p{q} request latency over the reservoir sample.")


class LatencyView:
    """Request-latency properties of a record whose ``latency`` field is
    a :class:`LatencyReservoir`."""

    derived = ("mean_request_seconds", "p50_request_seconds",
               "p95_request_seconds", "p99_request_seconds")

    @property
    def seconds_total(self) -> float:
        """Summed latency of every completed request."""
        return self.latency.total

    @property
    def mean_request_seconds(self) -> float:
        """Mean latency of completed requests (0.0 before the first)."""
        return self.latency.mean

    p50_request_seconds = _latency_percentile(50)
    p95_request_seconds = _latency_percentile(95)
    p99_request_seconds = _latency_percentile(99)
