"""The block fan-out through the pool's pipe, and the shard store that
only the benchmark harness still calls.

A parallel pass ships its payloads in the executor's chunks: one pickle
per chunk, through the pool's own pipe.  No package module imports
:mod:`repro.runtime.shards`, and a pass never asks for a shared-memory
segment.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys

import pytest

import repro
import repro.runtime
from repro.core.config import ResolverConfig
from repro.core.resolver import EntityResolver
from repro.experiments.runner import ExperimentContext, run_config
from repro.runtime import shards as shards_module
from repro.runtime.executor import (
    ProcessPoolBlockExecutor,
    SerialExecutor,
    pack_chunks,
)
from repro.runtime.shards import ShardHandle, ShardStore, load_shard
from repro.runtime.tasks import (
    PredictBlockTask,
    run_block_tasks,
    run_pass,
    run_predict_block,
)


def _echo(payload):
    """Module-level task body for the dispatch tests."""
    return ("echo", payload, os.getpid())


def _shared_identity(payload):
    """The worker's object for the payload's shared part."""
    return id(payload["shared"])


class TestShardStore:
    def test_same_process_load_is_zero_copy(self):
        payload = {"matrix": list(range(100)), "label": "block-a"}
        with ShardStore() as store:
            handle = store.publish(payload, label="test")
            assert load_shard(handle) is payload

    def test_handle_nbytes_is_the_pickle_length(self):
        payload = {"values": list(range(500)), "name": "sized"}
        with ShardStore() as store:
            handle = store.publish(payload)
        assert handle.nbytes == len(
            pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))

    def test_handle_is_tiny_compared_to_payload(self):
        payload = {"blob": "x" * 100_000}
        with ShardStore() as store:
            handle = store.publish(payload)
            assert len(pickle.dumps(handle)) < 200
            assert handle.nbytes > 100_000

    def test_segment_roundtrips_without_local_registry(self):
        """Away from the registry a load attaches the segment and
        unpickles a copy."""
        payload = {"values": [1.5, 2.5], "name": "roundtrip"}
        with ShardStore() as store:
            handle = store.publish(payload)
            shards_module._LOCAL.pop(handle.shard_id)
            loaded = load_shard(handle)
            assert loaded == payload
            assert loaded is not payload

    def test_close_unlinks_segments_and_registry(self):
        store = ShardStore()
        handle = store.publish({"gone": True})
        store.close()
        assert handle.shard_id not in shards_module._LOCAL
        with pytest.raises((FileNotFoundError, OSError)):
            load_shard(handle)

    def test_publish_after_close_raises(self):
        store = ShardStore()
        store.close()
        with pytest.raises(RuntimeError, match="closed"):
            store.publish({"late": True})

    def test_close_is_idempotent(self):
        store = ShardStore()
        store.publish({"a": 1})
        store.close()
        store.close()

    def test_an_attach_closes_the_segment_at_once(self):
        """An attach unpickles and closes the segment at once: the store
        then closes and unlinks it, nothing maps it any more, and the
        payload is intact."""
        with ShardStore() as store:
            handle = store.publish({"index": 1, "blob": "x" * 4096})
            shards_module._LOCAL.pop(handle.shard_id)
            payload = load_shard(handle)
        assert payload == {"index": 1, "blob": "x" * 4096}
        if os.path.exists("/proc/self/maps"):
            with open("/proc/self/maps", encoding="utf-8") as maps:
                mapped = maps.read()
            assert handle.location not in mapped
        with pytest.raises((FileNotFoundError, OSError)):
            load_shard(handle)

    def test_handle_dataclass_shape(self):
        handle = ShardHandle(shard_id="s", location="loc", nbytes=10)
        assert (handle.shard_id, handle.location, handle.nbytes) == (
            "s", "loc", 10)


class TestFanOut:
    def test_run_block_tasks_serial_matches_direct(self):
        results = run_block_tasks(SerialExecutor(), _echo, ["x", "y", "z"])
        assert [r[:2] for r in results] == [("echo", "x"), ("echo", "y"),
                                            ("echo", "z")]
        assert all(pid == os.getpid() for _, _, pid in results)

    def test_run_block_tasks_parallel_crosses_processes(self):
        with ProcessPoolBlockExecutor(workers=2,
                                      oversubscribe=True) as executor:
            payloads = [f"payload-{index}" for index in range(8)]
            results = run_block_tasks(executor, _echo, payloads,
                                      weights=[1] * 8)
            assert [r[1] for r in results] == payloads
            assert os.getpid() not in {pid for _, _, pid in results}

    def test_a_persistent_pool_runs_many_fan_outs(self):
        with ProcessPoolBlockExecutor(workers=2,
                                      oversubscribe=True) as executor:
            first = run_block_tasks(executor, _echo, ["a", "b", "c", "d"])
            second = run_block_tasks(executor, _echo, ["e", "f", "g", "h"])
            assert executor.fork_waves == 1
            assert [r[1] for r in first] == ["a", "b", "c", "d"]
            assert [r[1] for r in second] == ["e", "f", "g", "h"]

    def test_single_payload_runs_inline(self):
        with ProcessPoolBlockExecutor(workers=2,
                                      oversubscribe=True) as executor:
            results = run_block_tasks(executor, _echo, ["solo"])
            assert results[0][:2] == ("echo", "solo")
            assert results[0][2] == os.getpid()
            assert executor.fork_waves == 0

    @pytest.mark.parametrize("weights", [None, [1, 3] * 16],
                             ids=["contiguous", "weighted"])
    def test_payloads_in_one_chunk_share_one_unpickled_copy(self,
                                                            weights):
        """A chunk is one pickle, so what its payloads share crosses
        once: every payload of a chunk reads the same worker object,
        whether chunks are contiguous slices or weighted bins."""
        shared = list(range(1000))
        payloads = [{"index": index, "shared": shared}
                    for index in range(32)]
        with ProcessPoolBlockExecutor(workers=2,
                                      oversubscribe=True) as executor:
            identities = run_block_tasks(executor, _shared_identity,
                                         payloads, weights=weights)
            chunks = pack_chunks(len(payloads),
                                 len(payloads) // executor.chunksize(32),
                                 weights=weights)
        assert max(map(len, chunks)) > 1
        for chunk in chunks:
            assert len({identities[index] for index in chunk}) == 1

    def test_weights_reach_the_executor(self):
        """``run_block_tasks`` hands the body, the payloads and their
        weights to the executor, once."""
        calls = []

        class Recording(SerialExecutor):
            def run(self, task, payloads, weights=None):
                calls.append((task, list(payloads), weights))
                return super().run(task, payloads, weights=weights)

        results = run_block_tasks(Recording(), _echo, ["a", "b"],
                                  weights=[2, 1])
        assert calls == [(_echo, ["a", "b"], [2, 1])]
        assert [r[1] for r in results] == ["a", "b"]

    def test_pipeline_predict_fanout_equals_inline(self, small_dataset,
                                                   pipeline,
                                                   shared_memory_calls):
        """A predict fan-out carrying the extraction pipeline gives the
        inline run's predictions, and its record publishes nothing."""
        config = ResolverConfig()
        model = EntityResolver(config).fit(small_dataset, training_seed=0,
                                           pipeline=pipeline)
        payloads = [PredictBlockTask(
            config=config, fitted=model.blocks[block.query_name],
            block=block, graphs=None, pipeline=pipeline, evaluate=False)
            for block in small_dataset]
        inline, _ = run_pass(SerialExecutor(), run_predict_block, "predict",
                             payloads)
        with ProcessPoolBlockExecutor(workers=2,
                                      oversubscribe=True) as executor:
            executor.run(abs, [0, 1])
            results, stats = run_pass(executor, run_predict_block,
                                      "predict", payloads)
        assert results == inline
        assert stats.n_blocks == len(payloads)
        assert stats.shard_bytes_published == 0
        assert shared_memory_calls == []


def test_the_runtime_package_exports_no_shard_name():
    assert not {"ShardStore", "ShardHandle", "load_shard"} & set(
        repro.runtime.__all__)
    assert not hasattr(repro.runtime, "ShardStore")


_IMPORT_EVERY_MODULE = """
import importlib, pkgutil, sys
import repro
for module in pkgutil.walk_packages(repro.__path__, "repro."):
    if module.name != "repro.runtime.shards":
        importlib.import_module(module.name)
assert "repro.runtime.shards" not in sys.modules, "shards imported"
print(len([name for name in sys.modules if name.startswith("repro.")]))
"""


def test_no_package_module_imports_the_shard_layer():
    source_root = os.path.dirname(os.path.dirname(repro.__file__))
    env = {**os.environ, "PYTHONPATH": source_root}
    finished = subprocess.run(
        [sys.executable, "-c", _IMPORT_EVERY_MODULE], env=env,
        capture_output=True, text=True, timeout=120)
    assert finished.returncode == 0, finished.stderr
    assert int(finished.stdout) > 50


_POOLED_FAN_OUT = """
import multiprocessing.resource_tracker as tracker
from repro.runtime.executor import ProcessPoolBlockExecutor
from repro.runtime.tasks import run_block_tasks

with ProcessPoolBlockExecutor(workers=2, oversubscribe=True) as executor:
    assert run_block_tasks(executor, abs, [-1, -2, -3, -4]) == [1, 2, 3, 4]
assert tracker._resource_tracker._pid is None, "a tracker was started"
"""


def test_a_pooled_fan_out_starts_no_resource_tracker():
    """A process whose only parallel work is a fan-out registers no
    shared-memory segment, so it never starts multiprocessing's resource
    tracker and nothing is left for one to report at exit."""
    source_root = os.path.dirname(os.path.dirname(repro.__file__))
    env = {**os.environ, "PYTHONPATH": source_root}
    finished = subprocess.run(
        [sys.executable, "-c", _POOLED_FAN_OUT], env=env,
        capture_output=True, text=True, timeout=120)
    assert finished.returncode == 0, finished.stderr
    assert "resource_tracker" not in finished.stderr, finished.stderr


class TestSharedMemoryDenied:
    """Where ``/dev/shm`` refuses a segment, the shard store cannot
    publish, and a parallel pass is not affected: it never asks."""

    def test_publish_raises_and_registers_nothing(self,
                                                  shared_memory_calls):
        registered = dict(shards_module._LOCAL)
        with ShardStore() as store:
            with pytest.raises(OSError):
                store.publish({"values": [1.5, 2.5], "name": "denied"})
        assert len(shared_memory_calls) == 1
        assert shards_module._LOCAL == registered

    def test_parallel_fit_gives_the_serial_partition(self,
                                                     shared_memory_calls):
        dataset = repro.www05_like(seed=4, pages_per_name=8,
                                   names=["William Cohen", "Adam Cheyer",
                                          "Lynn Voss"])
        resolver = EntityResolver(ResolverConfig())
        serial = resolver.fit(dataset, training_seed=0)
        serial_resolution = serial.evaluate_collection(dataset)
        with ProcessPoolBlockExecutor(workers=2,
                                      oversubscribe=True) as executor:
            pooled = resolver.fit(dataset, training_seed=0,
                                  executor=executor)
            resolution = pooled.evaluate_collection(dataset,
                                                    executor=executor)
            assert executor.fork_waves == 1
            assert len(executor._pool._processes) == 2
        assert pooled.fit_stats.effective_workers == 2
        assert resolution.stats.effective_workers == 2
        assert ({name: fitted.to_dict()
                 for name, fitted in pooled.blocks.items()}
                == {name: fitted.to_dict()
                    for name, fitted in serial.blocks.items()})
        assert ([(block.query_name, block.predicted, block.report)
                 for block in resolution.blocks]
                == [(block.query_name, block.predicted, block.report)
                    for block in serial_resolution.blocks])
        assert shared_memory_calls == []

    def test_parallel_protocol_pass_gives_the_serial_reports(
            self, small_dataset, shared_memory_calls):
        """The graphs-carrying path: a ``workers=2`` prepare ships
        graphs back and every protocol pass ships them out again, and
        the reports are the serial ones."""
        serial_context = ExperimentContext.prepare(small_dataset)
        seeds = serial_context.seeds(n_runs=2)
        serial = run_config(serial_context, ResolverConfig(), seeds)
        with ProcessPoolBlockExecutor(workers=2,
                                      oversubscribe=True) as executor:
            context = ExperimentContext.prepare(small_dataset,
                                                executor=executor)
            pooled = run_config(context, ResolverConfig(), seeds,
                                executor=executor)
            assert executor.fork_waves == 1
        assert pooled.per_seed_reports == serial.per_seed_reports
        assert context.stats.shard_bytes_published == 0
        assert pooled.stats.shard_bytes_published == 0
        assert shared_memory_calls == []
