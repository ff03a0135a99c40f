"""The public surface of the four stats records, pinned.

``RunStats``, ``TaskStats``, ``SessionStats`` and ``EngineStats`` are
read by the CLI, the examples,
the benchmark harness and callers' dashboards.  Each is built here from
fixed values and pinned on what a reader can see: its public attribute
names (data fields and derived properties alike), its ``to_dict()`` key
set where it has one, and its exact ``summary()`` line.  How a record
stores or derives a value may change; none of this may.
"""

from __future__ import annotations

import inspect
from dataclasses import fields

import pytest

from repro.pipeline.session import SessionStats
from repro.runtime.stats import RunStats, TaskStats
from repro.serving.engine import EngineStats

RUN_FIELDS = {
    "phase", "executor", "backend", "workers", "effective_workers",
    "available_cores", "host_cores", "cpuset_limited", "fork_waves",
    "wall_seconds", "n_blocks", "pairs_scored", "per_block_seconds",
    "shard_bytes_published", "plane_fallback_payloads",
}
LATENCY_VIEW = {"seconds_total", "latency", "mean_request_seconds",
                "p50_request_seconds", "p95_request_seconds",
                "p99_request_seconds"}


def public_attributes(cls) -> set[str]:
    """Data fields plus properties, without private names."""
    names = {entry.name for entry in fields(cls)}
    names |= {name for name, value in inspect.getmembers(cls)
              if isinstance(value, property)}
    return {name for name in names if not name.startswith("_")}


def run_stats() -> RunStats:
    return RunStats(
        phase="fit", executor="process", backend="numpy", workers=4,
        effective_workers=2, available_cores=2, host_cores=8,
        cpuset_limited=True, fork_waves=1, wall_seconds=1.25, n_blocks=3,
        pairs_scored=90, per_block_seconds={"Alice": 0.5, "Bob": 0.25},
        shard_bytes_published=4096, plane_fallback_payloads=0)


def session_stats() -> SessionStats:
    stats = SessionStats(routed_pages=1, prepared_blocks=2,
                         evicted_blocks=1)
    stats.record_request(0.002, pages=2)
    stats.record_request(0.004, pages=1)
    stats.record_assignments(2, 1)
    return stats


def engine_stats() -> EngineStats:
    stats = EngineStats(
        requests=3, pages=5, units=4, scoring_batches=3,
        coalesced_batches=1, coalesced_pages=2, max_batch_pages=2,
        bootstraps=1, lru_hits=3, lru_misses=1, swaps=1,
        swap_stall_seconds=0.0005, max_inflight=2)
    for seconds in (0.001, 0.003, 0.002):
        stats.latency.record(seconds)
    return stats


class TestPublicAttributes:
    @pytest.mark.parametrize("cls, expected", [
        (TaskStats, {"query_name", "seconds", "pairs_scored"}),
        (RunStats, RUN_FIELDS),
        (SessionStats, LATENCY_VIEW | {
            "requests", "pages", "incremental_assignments", "routed_pages",
            "new_entities", "prepared_blocks", "evicted_blocks"}),
        (EngineStats, LATENCY_VIEW | {
            "requests", "pages", "units", "failed_requests",
            "scoring_batches", "coalesced_batches", "coalesced_pages",
            "max_batch_pages", "bootstraps", "lru_hits", "lru_misses",
            "swaps", "swap_stall_seconds", "max_inflight", "lru_hit_rate",
            "mean_coalesced_pages"}),
    ], ids=lambda value: getattr(value, "__name__", ""))
    def test_names(self, cls, expected):
        assert public_attributes(cls) == expected


class TestRunStats:
    def test_to_dict(self):
        payload = run_stats().to_dict()
        assert set(payload) == RUN_FIELDS
        assert payload["workers"] == 4
        assert payload["per_block_seconds"] == {"Alice": 0.5, "Bob": 0.25}
        assert payload["shard_bytes_published"] == 4096

    def test_summary(self):
        assert run_stats().summary() == (
            "[fit] 3 blocks in 1.25s via process(workers=4->2); "
            "90 pairs scored")

    def test_merged(self):
        other = RunStats(
            phase="predict", executor="serial", workers=1,
            effective_workers=3, available_cores=1, host_cores=1,
            fork_waves=0, wall_seconds=0.75, n_blocks=2, pairs_scored=10,
            per_block_seconds={"Bob": 0.5},
            shard_bytes_published=1, plane_fallback_payloads=2)
        first = run_stats()
        combined = first.merged(other, phase="protocol")
        assert combined.to_dict() == {
            "phase": "protocol", "executor": "process",
            "backend": "numpy", "workers": 4,
            "effective_workers": 3,
            "available_cores": 2, "host_cores": 8, "cpuset_limited": True,
            "fork_waves": 1, "wall_seconds": 2.0, "n_blocks": 5,
            "pairs_scored": 100,
            "per_block_seconds": {"Alice": 0.5, "Bob": 0.75},
            "shard_bytes_published": 4097, "plane_fallback_payloads": 2,
        }
        assert first.per_block_seconds == {"Alice": 0.5, "Bob": 0.25}
        assert first.merged(other).phase == "fit"


class TestSessionStats:
    def test_values(self):
        stats = session_stats()
        assert (stats.requests, stats.pages) == (2, 3)
        assert (stats.incremental_assignments, stats.new_entities) == (2, 1)
        assert stats.seconds_total == pytest.approx(0.006)
        assert stats.mean_request_seconds == pytest.approx(0.003)
        assert stats.latency.count == 2

    def test_summary(self):
        assert session_stats().summary() == (
            "[session] 2 requests / 3 pages; 2 blocks prepared, 1 evicted; "
            "1 new entities; latency mean 3.00ms, p50 2.00ms, p95 4.00ms, "
            "p99 4.00ms")


class TestEngineStats:
    def test_to_dict(self):
        payload = engine_stats().to_dict()
        assert set(payload) == {
            "requests", "pages", "units", "failed_requests",
            "scoring_batches", "coalesced_batches", "coalesced_pages",
            "mean_coalesced_pages", "max_batch_pages", "bootstraps",
            "lru_hit_rate", "swaps", "swap_stall_seconds", "max_inflight",
            "mean_request_seconds", "p50_request_seconds",
            "p95_request_seconds", "p99_request_seconds"}
        assert payload["lru_hit_rate"] == 0.75
        assert payload["mean_coalesced_pages"] == 2.0
        assert payload["p50_request_seconds"] == 0.002

    def test_summary(self):
        assert engine_stats().summary() == (
            "[engine] 3 requests / 5 pages; 3 batches (1 coalesced, max 2 "
            "pages); LRU hit rate 75%; 1 swaps (stall 0.50ms); latency p50 "
            "2.00ms, p95 3.00ms, p99 3.00ms")
