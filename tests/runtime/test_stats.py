"""The telemetry core and RunStats aggregation and serialization."""

from __future__ import annotations

import json
import pickle
import sys
import threading

import pytest

from repro.runtime.stats import (LatencyReservoir, RunStats, TaskStats,
                                 Timer, percentile, rate)


class TestRunStats:
    def test_add_task_accumulates(self):
        stats = RunStats(phase="predict", executor="process", workers=4)
        stats.add_task(TaskStats("Alice", seconds=0.5, pairs_scored=10))
        stats.add_task(TaskStats("Bob", seconds=0.25, pairs_scored=5))
        assert stats.n_blocks == 2
        assert stats.pairs_scored == 15
        assert stats.per_block_seconds == {"Alice": 0.5, "Bob": 0.25}

    def test_merged_sums_counters_and_per_block_times(self):
        fit = RunStats(phase="fit", wall_seconds=1.0, n_blocks=2,
                       pairs_scored=100,
                       per_block_seconds={"Alice": 0.6, "Bob": 0.4})
        predict = RunStats(phase="predict", wall_seconds=0.5, n_blocks=2,
                           pairs_scored=0,
                           per_block_seconds={"Alice": 0.3})
        combined = fit.merged(predict, phase="protocol")
        assert combined.phase == "protocol"
        assert combined.wall_seconds == 1.5
        assert combined.pairs_scored == 100
        assert combined.n_blocks == 4
        assert combined.per_block_seconds == {
            "Alice": pytest.approx(0.9), "Bob": 0.4}
        # Inputs untouched.
        assert fit.per_block_seconds["Alice"] == 0.6

    def test_to_dict_is_json_serializable_and_complete(self):
        stats = RunStats(phase="prepare", executor="process", workers=4,
                         wall_seconds=2.0, n_blocks=3, pairs_scored=30,
                         per_block_seconds={"Alice": 1.0})
        payload = json.loads(json.dumps(stats.to_dict()))
        assert payload["phase"] == "prepare"
        assert payload["workers"] == 4
        assert payload["per_block_seconds"] == {"Alice": 1.0}

    def test_summary_mentions_the_essentials(self):
        stats = RunStats(phase="fit", executor="process", workers=2,
                         effective_workers=2,
                         wall_seconds=1.0, n_blocks=5, pairs_scored=50)
        line = stats.summary()
        assert "[fit]" in line and "process" in line
        assert "50 pairs scored" in line

    def test_summary_shows_degraded_worker_count(self):
        stats = RunStats(phase="fit", executor="process", workers=4,
                         effective_workers=1)
        assert "workers=4->1" in stats.summary()


class TestWorkerAccounting:
    def test_for_executor_snapshots_pool_accounting(self):
        from repro.runtime.executor import ProcessPoolBlockExecutor

        executor = ProcessPoolBlockExecutor(workers=3, oversubscribe=True)
        stats = RunStats.for_executor("fit", executor)
        assert stats.phase == "fit"
        assert stats.executor == "process"
        assert stats.workers == 3
        assert stats.effective_workers == 3
        assert stats.available_cores >= 1
        assert stats.host_cores >= stats.available_cores
        assert stats.cpuset_limited == (
            stats.available_cores < stats.host_cores)
        assert stats.fork_waves == 0

    def test_for_executor_handles_serial_backends(self):
        from repro.runtime.executor import SerialExecutor

        stats = RunStats.for_executor("prepare", SerialExecutor())
        assert stats.executor == "serial"
        assert stats.effective_workers == 1
        assert stats.fork_waves == 0

    def test_finish_executor_reports_the_delta(self):
        class FakePool:
            name = "process"
            workers = 2
            effective_workers = 2
            fork_waves = 3

        pool = FakePool()
        stats = RunStats.for_executor("fit", pool)
        pool.fork_waves = 4  # this pass forked once
        stats.finish_executor(pool)
        assert stats.fork_waves == 1

    def test_merged_sums_fork_waves(self):
        fit = RunStats(phase="fit", effective_workers=2, fork_waves=1,
                       host_cores=4, available_cores=4)
        predict = RunStats(phase="predict", effective_workers=2,
                           fork_waves=0)
        combined = fit.merged(predict, phase="protocol")
        assert combined.fork_waves == 1
        assert combined.effective_workers == 2
        assert combined.host_cores == 4

    def test_to_dict_includes_accounting_fields(self):
        payload = RunStats(phase="fit", workers=4, effective_workers=2,
                           available_cores=2, host_cores=8,
                           cpuset_limited=True, fork_waves=1).to_dict()
        assert payload["workers"] == 4
        assert payload["effective_workers"] == 2
        assert payload["available_cores"] == 2
        assert payload["host_cores"] == 8
        assert payload["cpuset_limited"] is True
        assert payload["fork_waves"] == 1


class TestBackendNamed:
    @pytest.mark.parametrize("backend", ["python", "numpy"])
    def test_every_pass_names_its_scoring_backend(self, small_dataset,
                                                  backend):
        """A stats dump says which backend scored it: fit and evaluate
        record the configured backend's name."""
        from repro.core.config import ResolverConfig
        from repro.core.resolver import EntityResolver

        model = EntityResolver(ResolverConfig(backend=backend)).fit(
            small_dataset, training_seed=0)
        resolution = model.evaluate_collection(small_dataset)
        for stats in (model.fit_stats, resolution.stats):
            assert stats.backend == backend
            assert stats.to_dict()["backend"] == backend

    def test_the_ambient_default_is_resolved_to_a_name(self):
        from repro.runtime.executor import SerialExecutor
        from repro.runtime.tasks import run_pass, run_prepare_block
        from repro.similarity.backends import default_backend

        _, stats = run_pass(SerialExecutor(), run_prepare_block, "prepare",
                            [])
        assert stats.backend == default_backend()


class TestPercentile:
    def test_nearest_rank_returns_observed_samples(self):
        samples = [0.001 * k for k in range(1, 101)]
        assert percentile(samples, 50) == pytest.approx(0.050)
        assert percentile(samples, 95) == pytest.approx(0.095)
        assert percentile(samples, 99) == pytest.approx(0.099)
        assert percentile(samples, 100) == pytest.approx(0.100)

    def test_order_insensitive(self):
        shuffled = [0.4, 0.1, 0.3, 0.2]
        assert percentile(shuffled, 50) == 0.2
        assert percentile(shuffled, 100) == 0.4

    def test_empty_is_zero(self):
        assert percentile([], 99) == 0.0

    def test_single_sample_is_every_percentile(self):
        assert percentile([0.7], 1) == 0.7
        assert percentile([0.7], 99) == 0.7


class TestLatencyReservoir:
    def test_exact_below_capacity(self):
        reservoir = LatencyReservoir(capacity=100)
        for ms in range(1, 51):
            reservoir.record(ms / 1000.0)
        assert reservoir.count == 50
        assert reservoir.percentile(50) == pytest.approx(0.025)

    def test_capacity_bounds_memory_not_count(self):
        reservoir = LatencyReservoir(capacity=16)
        for ms in range(1000):
            reservoir.record(ms / 1000.0)
        assert reservoir.count == 1000
        assert len(reservoir._samples) == 16

    def test_identical_streams_report_identical_percentiles(self):
        a, b = LatencyReservoir(capacity=32), LatencyReservoir(capacity=32)
        for ms in range(500):
            a.record(ms / 1000.0)
            b.record(ms / 1000.0)
        for q in (50, 90, 95, 99):
            assert a.percentile(q) == b.percentile(q)

    def test_invalid_capacity_raises(self):
        with pytest.raises(ValueError, match="capacity"):
            LatencyReservoir(capacity=0)

    def test_total_and_mean_cover_every_observation(self):
        reservoir = LatencyReservoir(capacity=4)
        assert reservoir.mean == 0.0
        for value in (1.0, 2.0, 3.0, 4.0, 5.0, 6.0):
            reservoir.record(value)
        assert len(reservoir) == 4
        assert reservoir.total == 21.0
        assert reservoir.mean == 3.5


class TestCore:
    def test_rate_is_zero_safe(self):
        assert rate(1, 4) == 0.25
        assert rate(0, 0) == 0.0

    def test_timer_measures_its_block(self):
        with Timer() as timer:
            pass
        assert timer.seconds >= 0.0

    def test_records_pickle_with_a_fresh_lock(self):
        task = TaskStats("Alice", seconds=0.5, pairs_scored=3)
        copy = pickle.loads(pickle.dumps(task))
        assert copy == task
        assert copy._lock is not task._lock
        copy.fold(pairs_scored=1)
        assert copy.pairs_scored == 4

    def test_fold_loses_no_update_under_threads(self):
        stats = TaskStats("Alice")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=lambda: [
                stats.fold(pairs_scored=1, seconds=1.0)
                for _ in range(500)]) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert (stats.pairs_scored, stats.seconds) == (4000, 4000.0)
