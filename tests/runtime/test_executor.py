"""Block executor backends and how a config or a worker count picks one."""

from __future__ import annotations

import math
import os

import pytest

from repro.core.config import ResolverConfig
from repro.runtime.executor import (
    CHUNKS_PER_WORKER,
    DegradedParallelismWarning,
    ProcessPoolBlockExecutor,
    SerialExecutor,
    available_cores,
    core_report,
    executor_for_workers,
    executor_from_config,
    host_cores,
    pack_chunks,
)


def _square(value: int) -> int:
    """Module-level so the process backend can pickle it."""
    return value * value


def _worker_pid(_: object) -> int:
    return os.getpid()


def _fail_on_negative(value: int) -> int:
    if value < 0:
        raise RuntimeError(f"poisoned payload {value}")
    return value


class TestConfig:
    def test_config_validates_executor_and_workers(self):
        with pytest.raises(ValueError, match="unknown executor: 'warp-drive'"
                                             "; known executors are: "
                                             "process, serial"):
            ResolverConfig(executor="warp-drive")
        with pytest.raises(ValueError, match="workers"):
            ResolverConfig(workers=0)

    def test_saved_config_carries_no_runtime_field(self):
        payload = ResolverConfig(executor="process", workers=3).to_dict()
        assert not {"executor", "workers", "oversubscribe",
                    "backend"} & set(payload)
        rebuilt = ResolverConfig.from_dict(payload)
        assert (rebuilt.executor, rebuilt.workers) == ("serial", 1)

    def test_config_ignores_runtime_fields_of_old_payloads(self):
        payload = {**ResolverConfig().to_dict(), "executor": "process",
                   "workers": 3, "oversubscribe": True}
        rebuilt = ResolverConfig.from_dict(payload)
        assert rebuilt == ResolverConfig.from_dict(
            ResolverConfig().to_dict())
        assert (rebuilt.executor, rebuilt.workers) == ("serial", 1)


class TestSerialExecutor:
    def test_runs_in_payload_order(self):
        executor = SerialExecutor()
        assert executor.run(_square, [3, 1, 2]) == [9, 1, 4]
        assert executor.is_serial

    def test_worker_count_normalized_to_one(self):
        assert SerialExecutor(workers=8).workers == 1


class TestProcessExecutor:
    def test_results_in_payload_order(self):
        executor = ProcessPoolBlockExecutor(workers=3, oversubscribe=True)
        assert executor.run(_square, list(range(10))) == [
            value * value for value in range(10)]
        assert not executor.is_serial

    def test_actually_fans_out_to_other_processes(self):
        executor = ProcessPoolBlockExecutor(workers=2, oversubscribe=True)
        pids = executor.run(_worker_pid, [None, None, None, None])
        assert os.getpid() not in pids

    def test_single_payload_short_circuits_inline(self):
        executor = ProcessPoolBlockExecutor(workers=4, oversubscribe=True)
        assert executor.run(_worker_pid, [None]) == [os.getpid()]

    def test_rejects_nonpositive_workers(self):
        with pytest.raises(ValueError, match="workers"):
            ProcessPoolBlockExecutor(workers=0)

    def test_effective_workers_capped_at_available_cores(self):
        executor = ProcessPoolBlockExecutor(workers=4096)
        assert executor.effective_workers == min(4096, available_cores())

    def test_oversubscribe_lifts_the_core_cap(self):
        executor = ProcessPoolBlockExecutor(workers=4096, oversubscribe=True)
        assert executor.effective_workers == 4096

    def test_capped_to_one_core_reports_serial(self, monkeypatch):
        monkeypatch.setattr("repro.runtime.executor.available_cores",
                            lambda: 1)
        executor = ProcessPoolBlockExecutor(workers=4)
        assert executor.is_serial
        with pytest.warns(DegradedParallelismWarning):
            assert executor.run(_worker_pid, [None, None]) \
                == [os.getpid()] * 2


class TestPersistentPool:
    def test_one_fork_wave_across_many_runs(self):
        """The regression the rework exists for: run() must not re-fork."""
        with ProcessPoolBlockExecutor(workers=2,
                                      oversubscribe=True) as executor:
            first = set(executor.run(_worker_pid, [None] * 8))
            second = set(executor.run(_worker_pid, [None] * 8))
            third = set(executor.run(_worker_pid, [None] * 8))
            assert executor.fork_waves == 1
            # The same worker processes served every wave of tasks: a
            # re-fork would surface fresh pids each run, so the union
            # across waves must stay within the single pool's size.
            # (Per-wave sets can differ — under load one worker may
            # drain a whole wave of these fast tasks by itself.)
            assert len(first | second | third) <= 2
            assert first and second and third

    def test_close_is_idempotent_and_reopens_on_demand(self):
        executor = ProcessPoolBlockExecutor(workers=2, oversubscribe=True)
        assert executor.run(_square, [1, 2, 3]) == [1, 4, 9]
        executor.close()
        executor.close()
        # A fresh run after close builds a second pool (second wave).
        assert executor.run(_square, [1, 2, 3]) == [1, 4, 9]
        assert executor.fork_waves == 2
        executor.close()

    def test_serial_close_is_a_noop(self):
        executor = SerialExecutor()
        executor.close()
        assert executor.run(_square, [2]) == [4]

    def test_task_exception_shuts_the_pool_down(self):
        """A failing task must not leave orphaned workers behind."""
        executor = ProcessPoolBlockExecutor(workers=2, oversubscribe=True)
        with pytest.raises(RuntimeError, match="poisoned"):
            executor.run(_fail_on_negative, [1, 2, -1, 4])
        assert executor._pool is None
        # The executor stays usable: the next run forks a fresh pool.
        assert executor.run(_square, [1, 2, 3]) == [1, 4, 9]
        assert executor.fork_waves == 2
        executor.close()

    @pytest.mark.parametrize("where", ["task", "first", "last"])
    def test_unpicklable_chunk_raises_and_shuts_the_pool_down(self, where):
        """A chunk is pickled in the caller, so a task or payload that
        cannot pickle raises there — before any chunk is submitted, or
        after the earlier chunks were — and no worker is left behind (a
        pickling error in the pool's feeder thread can leave the pool's
        shutdown waiting forever)."""
        import multiprocessing
        import pickle

        task, payloads = _square, list(range(8))
        if where == "task":
            task = lambda value: value  # noqa: E731 - cannot pickle
        else:
            payloads[0 if where == "first" else -1] = lambda: 3
        executor = ProcessPoolBlockExecutor(workers=2, oversubscribe=True)
        before = set(multiprocessing.active_children())
        with pytest.raises((pickle.PicklingError, AttributeError)):
            executor.run(task, payloads)
        assert executor._pool is None
        assert set(multiprocessing.active_children()) <= before
        assert executor.run(_square, [1, 2, 3]) == [1, 4, 9]
        executor.close()

    def test_workers_beyond_payload_count_still_correct(self):
        with ProcessPoolBlockExecutor(workers=8,
                                      oversubscribe=True) as executor:
            assert executor.run(_square, [3, 5]) == [9, 25]


class TestChunking:
    def test_chunksize_scales_with_payload_count(self):
        executor = ProcessPoolBlockExecutor(workers=4, oversubscribe=True)
        lanes = 4 * CHUNKS_PER_WORKER
        assert executor.chunksize(1) == 1
        assert executor.chunksize(lanes) == 1
        assert executor.chunksize(400) == math.ceil(400 / lanes)

    def test_pack_chunks_contiguous_without_weights(self):
        chunks = pack_chunks(10, 3)
        assert chunks == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9]]

    def test_pack_chunks_caps_chunk_count_at_payloads(self):
        assert pack_chunks(2, 8) == [[0], [1]]

    def test_pack_chunks_largest_first_bin_packing(self):
        # One giant block plus four small ones: LPT isolates the giant
        # in its own chunk and dispatches it first.
        chunks = pack_chunks(5, 2, weights=[10, 1, 1, 1, 1])
        assert chunks[0] == [0]
        assert sorted(chunks[1]) == [1, 2, 3, 4]

    def test_pack_chunks_covers_every_index_exactly_once(self):
        weights = [(index * 7919) % 13 + 1 for index in range(57)]
        chunks = pack_chunks(57, 8, weights=weights)
        flat = sorted(index for chunk in chunks for index in chunk)
        assert flat == list(range(57))

    def test_pack_chunks_rejects_mismatched_weights(self):
        with pytest.raises(ValueError, match="weights"):
            pack_chunks(3, 2, weights=[1, 2])

    def test_weighted_run_preserves_payload_order(self):
        with ProcessPoolBlockExecutor(workers=3,
                                      oversubscribe=True) as executor:
            payloads = list(range(23))
            weights = [(value * 31) % 7 + 1 for value in payloads]
            assert (executor.run(_square, payloads, weights=weights)
                    == [value * value for value in payloads])


class TestDegradation:
    def test_core_cap_to_serial_warns_loudly(self, monkeypatch):
        monkeypatch.setattr("repro.runtime.executor.available_cores",
                            lambda: 1)
        executor = ProcessPoolBlockExecutor(workers=4)
        with pytest.warns(DegradedParallelismWarning, match="core cap"):
            assert executor.run(_worker_pid, [None, None]) \
                == [os.getpid()] * 2

    def test_degradation_warns_only_once(self, monkeypatch):
        monkeypatch.setattr("repro.runtime.executor.available_cores",
                            lambda: 1)
        executor = ProcessPoolBlockExecutor(workers=4)
        with pytest.warns(DegradedParallelismWarning):
            executor.run(_square, [1, 2])
        import warnings as warnings_module
        with warnings_module.catch_warnings():
            warnings_module.simplefilter("error")
            assert executor.run(_square, [1, 2]) == [1, 4]

    def test_fork_unavailable_falls_back_inline(self, monkeypatch):
        monkeypatch.setattr("repro.runtime.executor._fork_context",
                            lambda: None)
        executor = ProcessPoolBlockExecutor(workers=2, oversubscribe=True)
        with pytest.warns(DegradedParallelismWarning, match="fork"):
            assert executor.run(_worker_pid, [None, None]) \
                == [os.getpid()] * 2
        assert executor.fork_waves == 0

    def test_single_payload_never_pays_pool_overhead(self):
        executor = ProcessPoolBlockExecutor(workers=4, oversubscribe=True)
        assert executor.run(_worker_pid, [None]) == [os.getpid()]
        assert executor.fork_waves == 0

    def test_empty_payloads_return_empty(self):
        executor = ProcessPoolBlockExecutor(workers=4, oversubscribe=True)
        assert executor.run(_square, []) == []
        assert executor.fork_waves == 0


class TestCoreReport:
    def test_report_is_internally_consistent(self):
        report = core_report()
        assert set(report) == {"available_cores", "host_cores",
                               "cpuset_limited"}
        assert report["available_cores"] >= 1
        assert report["host_cores"] >= 1
        assert report["available_cores"] <= report["host_cores"]
        assert report["cpuset_limited"] == (
            report["available_cores"] < report["host_cores"])
        assert report["available_cores"] == available_cores()
        assert report["host_cores"] == host_cores()

    def test_cpuset_underreport_is_flagged(self, monkeypatch):
        """A container cpuset granting 2 of 8 cores must be recorded."""
        monkeypatch.setattr("repro.runtime.executor.available_cores",
                            lambda: 2)
        monkeypatch.setattr("repro.runtime.executor.host_cores", lambda: 8)
        report = core_report()
        assert report["available_cores"] == 2
        assert report["host_cores"] == 8
        assert report["cpuset_limited"] is True
        # The effective worker cap follows the affinity, not the host.
        assert ProcessPoolBlockExecutor(workers=8).effective_workers == 2


class TestEnvWorkers:
    @pytest.mark.parametrize("raw, workers", [
        (None, 1), ("", 1), ("3", 3), (" 3 ", 3), ("not-a-number", 1),
        ("0", 1), ("-2", 1)])
    def test_env_default_parsing(self, monkeypatch, raw, workers):
        """An unset, empty, non-integer or non-positive value reads as
        unset: the serial default."""
        if raw is None:
            monkeypatch.delenv("REPRO_WORKERS", raising=False)
        else:
            monkeypatch.setenv("REPRO_WORKERS", raw)
        executor = executor_from_config(ResolverConfig())
        assert executor.workers == workers
        assert executor.name == ("serial" if workers == 1 else "process")

    def test_serial_config_widens_to_env_workers(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        executor = executor_from_config(ResolverConfig())
        assert (executor.name, executor.workers) == ("process", 3)

    def test_explicit_config_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "7")
        executor = executor_from_config(
            ResolverConfig(executor="process", workers=2))
        assert (executor.name, executor.workers) == ("process", 2)

    def test_env_of_one_stays_serial(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "1")
        assert executor_from_config(ResolverConfig()).name == "serial"


class TestSelection:
    def test_executor_for_workers_picks_backend(self):
        assert executor_for_workers(1).name == "serial"
        parallel = executor_for_workers(4)
        assert (parallel.name, parallel.workers) == ("process", 4)

    @pytest.mark.parametrize("workers", [0, -3])
    def test_executor_for_workers_rejects_nonpositive(self, workers):
        with pytest.raises(ValueError, match=f"got {workers}"):
            executor_for_workers(workers)

    def test_process_config_of_one_worker_runs_serial(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "7")
        executor = executor_from_config(
            ResolverConfig(executor="process", workers=1))
        assert (executor.name, executor.workers) == ("serial", 1)

    def test_serial_backend_reports_its_accounting(self):
        """Every executor answers the attributes ``RunStats`` reads."""
        executor = SerialExecutor(workers=4)
        assert (executor.workers, executor.effective_workers,
                executor.fork_waves) == (1, 1, 0)
        assert executor.is_serial
