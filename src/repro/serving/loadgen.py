"""Closed-loop load generator for the serving engine.

Drives a :class:`~repro.serving.engine.ServingEngine` with N worker
threads, each issuing its share of a fixed request list back-to-back
(closed loop: a worker's next request starts when its previous one
completes, the standard model for latency benchmarking without
coordinated omission from an open arrival process).  Every request
latency is kept exactly — the report's percentiles are computed over the
full merged sample, not a reservoir — alongside sustained QPS and error
counts.

A swap plan (``{completed_request_count: model}``) injects model
hot-swaps at deterministic points in the run: the worker whose
completion crosses the threshold performs the swap inline, so "swap
under live traffic" is exercised with the remaining workers mid-flight.

Used by the ``serve --threads`` CLI path and the serving tests; import
from :mod:`repro.serving`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.core.model import ResolverModel
from repro.corpus.documents import WebPage
from repro.extraction.features import PageFeatures
from repro.runtime.stats import Timer, clock, percentile, rate

__all__ = ["LoadReport", "LoadRequest", "run_load"]


@dataclass
class LoadRequest:
    """One unit of offered load: the pages of a single resolve call."""

    pages: list[WebPage]
    features: dict[str, PageFeatures] | None = None


@dataclass
class LoadReport:
    """Outcome of one closed-loop run.

    Attributes:
        threads: worker threads that offered the load.
        requests: requests attempted.
        completed: requests that returned assignments.
        failed: requests that raised (their errors, in ``errors``).
        pages: pages across completed requests.
        wall_seconds: run duration, first issue to last completion.
        qps: completed requests per wall-clock second.
        latencies: every completed request's latency in seconds —
            the exact sample behind the percentile properties.
    """

    threads: int
    requests: int
    completed: int
    failed: int
    pages: int
    wall_seconds: float
    latencies: list[float] = field(default_factory=list, repr=False)
    errors: list[Exception] = field(default_factory=list, repr=False)

    @property
    def qps(self) -> float:
        """Sustained completed-requests-per-second over the run."""
        return rate(self.completed, self.wall_seconds)

    @property
    def mean_seconds(self) -> float:
        return rate(sum(self.latencies), len(self.latencies))

    @property
    def p50_seconds(self) -> float:
        return percentile(self.latencies, 50)

    @property
    def p95_seconds(self) -> float:
        return percentile(self.latencies, 95)

    @property
    def p99_seconds(self) -> float:
        return percentile(self.latencies, 99)

    def to_dict(self) -> dict[str, object]:
        """JSON-serializable summary (drops the raw samples)."""
        return {
            "threads": self.threads,
            "requests": self.requests,
            "completed": self.completed,
            "failed": self.failed,
            "pages": self.pages,
            "wall_seconds": self.wall_seconds,
            "qps": self.qps,
            "mean_request_seconds": self.mean_seconds,
            "p50_request_seconds": self.p50_seconds,
            "p95_request_seconds": self.p95_seconds,
            "p99_request_seconds": self.p99_seconds,
        }


class _Progress:
    """Run-global completion counter shared by the workers."""

    def __init__(self):
        self._lock = threading.Lock()
        self._count = 0

    def advance(self) -> int:
        with self._lock:
            self._count += 1
            return self._count


def _worker(engine, share: list[LoadRequest], progress: _Progress,
            swap_plan: dict[int, ResolverModel],
            latencies: list[float], errors: list[Exception],
            pages: list[int]) -> None:
    for request in share:
        started = clock()
        try:
            engine.resolve(request.pages, features=request.features)
        except Exception as error:  # the report decides what failure means
            errors.append(error)
        else:
            latencies.append(clock() - started)
            pages[0] += len(request.pages)
        crossed = progress.advance()
        model = swap_plan.pop(crossed, None)
        if model is not None:
            engine.swap(model)


def run_load(engine, requests: list[LoadRequest], threads: int = 1,
             swap_plan: dict[int, ResolverModel] | None = None) -> LoadReport:
    """Offer ``requests`` to ``engine`` from a closed loop of workers.

    Requests are dealt round-robin (worker ``i`` serves
    ``requests[i::threads]``), so the same workload splits the same way
    run to run and thread counts compare like for like.

    Args:
        engine: the serving engine under load.
        requests: the offered load, issued back-to-back per worker.
        threads: closed-loop workers (>= 1).
        swap_plan: optional ``{completed_count: model}`` — when the
            run's N-th request completes, the crossing worker swaps the
            engine to that model, under whatever traffic remains.

    Returns:
        A :class:`LoadReport` with exact latency percentiles.
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    plan = dict(swap_plan or {})
    progress = _Progress()
    shares = [requests[index::threads] for index in range(threads)]
    latencies: list[list[float]] = [[] for _ in range(threads)]
    errors: list[list[Exception]] = [[] for _ in range(threads)]
    pages: list[list[int]] = [[0] for _ in range(threads)]
    workers = [
        threading.Thread(
            target=_worker,
            args=(engine, shares[index], progress, plan,
                  latencies[index], errors[index], pages[index]),
            name=f"loadgen-{index}")
        for index in range(threads)
    ]
    with Timer() as wall:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
    merged = [sample for share in latencies for sample in share]
    failed = [error for share in errors for error in share]
    return LoadReport(
        threads=threads,
        requests=len(requests),
        completed=len(merged),
        failed=len(failed),
        pages=sum(share[0] for share in pages),
        wall_seconds=wall.seconds,
        latencies=merged,
        errors=failed,
    )
