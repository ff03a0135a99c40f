"""Shared-memory shard publication and the sharded task dispatch."""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
import tempfile

import pytest

import repro
from repro.core.config import ResolverConfig
from repro.core.resolver import EntityResolver
from repro.runtime import shards as shards_module
from repro.runtime.executor import ProcessPoolBlockExecutor, SerialExecutor
from repro.runtime.shards import ShardHandle, ShardStore, load_shard
from repro.runtime.stats import RunStats
from repro.runtime.tasks import (
    TASK_KINDS,
    BlockShard,
    PredictBlockTask,
    ShardedBlockTask,
    run_block_tasks,
    run_sharded_block,
)


def _echo(payload, attach_seconds=0.0):
    """Module-level task body for the dispatch tests."""
    return ("echo", payload, os.getpid())


@pytest.fixture
def echo_kind():
    TASK_KINDS["echo"] = _echo
    yield "echo"
    TASK_KINDS.pop("echo", None)


class TestShardStore:
    def test_same_process_load_is_zero_copy(self):
        payload = {"matrix": list(range(100)), "label": "block-a"}
        with ShardStore() as store:
            handle = store.publish(payload, label="test")
            assert load_shard(handle) is payload

    def test_handle_is_tiny_compared_to_payload(self):
        payload = {"blob": "x" * 100_000}
        with ShardStore() as store:
            handle = store.publish(payload)
            assert len(pickle.dumps(handle)) < 200
            assert handle.nbytes > 100_000

    @pytest.mark.parametrize("prefer_shm", [True, False])
    def test_segment_roundtrips_without_local_registry(self, prefer_shm):
        """The worker path: attach the segment and unpickle, over shared
        memory and over the scratch file alike."""
        payload = {"values": [1.5, 2.5], "name": "roundtrip"}
        with ShardStore(prefer_shared_memory=prefer_shm) as store:
            handle = store.publish(payload)
            assert handle.via == ("shm" if prefer_shm else "file")
            shards_module._LOCAL.pop(handle.shard_id)
            loaded = load_shard(handle)
            assert loaded == payload
            assert loaded is not payload
            shards_module._ATTACHED.clear()

    def test_file_fallback_roundtrips(self):
        payload = {"via": "file", "data": list(range(50))}
        with ShardStore(prefer_shared_memory=False) as store:
            handle = store.publish(payload)
            assert handle.via == "file"
            assert os.path.exists(handle.location)
            shards_module._LOCAL.pop(handle.shard_id)
            assert load_shard(handle) == payload
            shards_module._ATTACHED.clear()
        assert not os.path.exists(handle.location)

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

    @pytest.mark.parametrize("prefer_shm", [True, False])
    def test_worker_cache_holds_only_the_last_attached_shard(self,
                                                             prefer_shm):
        """An attach unpickles and closes the segment at once: the store
        then closes and unlinks it, nothing maps it any more, the payload
        is intact, and the cache holds only that shard."""
        with ShardStore(prefer_shared_memory=prefer_shm) as store:
            first, second = (store.publish({"index": index,
                                            "blob": "x" * 4096})
                             for index in range(2))
            for handle in (first, second):
                shards_module._LOCAL.pop(handle.shard_id)
            assert load_shard(first)["index"] == 0
            payload = load_shard(second)
            assert list(shards_module._ATTACHED) == [second.shard_id]
            assert load_shard(second) is payload
        assert payload == {"index": 1, "blob": "x" * 4096}
        if os.path.exists("/proc/self/maps"):
            with open("/proc/self/maps", encoding="utf-8") as maps:
                mapped = maps.read()
            assert second.location not in mapped
        with pytest.raises((FileNotFoundError, OSError)):
            shards_module._attach(second)
        shards_module._ATTACHED.clear()


class TestShardedDispatch:
    def test_run_sharded_block_dispatches_by_kind(self, echo_kind):
        with ShardStore() as store:
            handle = store.publish(
                BlockShard(kind=echo_kind, payloads=("a", "b")))
            assert run_sharded_block(
                ShardedBlockTask(handle=handle, index=1))[:2] == ("echo", "b")

    def test_run_block_tasks_serial_matches_direct(self, echo_kind):
        from repro.runtime.executor import SerialExecutor

        results = run_block_tasks(SerialExecutor(), echo_kind,
                                  ["x", "y", "z"])
        assert [r[:2] for r in results] == [("echo", "x"), ("echo", "y"),
                                            ("echo", "z")]
        assert all(pid == os.getpid() for _, _, pid in results)

    def test_run_block_tasks_parallel_crosses_processes(self, echo_kind):
        with ProcessPoolBlockExecutor(workers=2,
                                      oversubscribe=True) as executor:
            payloads = [f"payload-{index}" for index in range(8)]
            results = run_block_tasks(executor, echo_kind, payloads,
                                      weights=[1] * 8)
            assert [r[1] for r in results] == payloads
            assert os.getpid() not in {pid for _, _, pid in results}

    def test_workers_forked_before_publish_attach_segments(self, echo_kind):
        """The persistent-pool steady state: pool outlives many shards."""
        with ProcessPoolBlockExecutor(workers=2,
                                      oversubscribe=True) as executor:
            first = run_block_tasks(executor, echo_kind, ["a", "b", "c", "d"])
            # Second fan-out publishes a fresh shard; the pool (forked
            # during the first) must attach it via shared memory.
            second = run_block_tasks(executor, echo_kind,
                                     ["e", "f", "g", "h"])
            assert executor.fork_waves == 1
            assert [r[1] for r in first] == ["a", "b", "c", "d"]
            assert [r[1] for r in second] == ["e", "f", "g", "h"]

    def test_single_payload_skips_shard_publication(self, echo_kind):
        with ProcessPoolBlockExecutor(workers=2,
                                      oversubscribe=True) as executor:
            results = run_block_tasks(executor, echo_kind, ["solo"])
            assert results[0][:2] == ("echo", "solo")
            assert results[0][2] == os.getpid()
            assert executor.fork_waves == 0

    def test_pipeline_predict_fanout_equals_inline(self, small_dataset,
                                                   pipeline):
        """A predict fan-out carrying the extraction pipeline, attached
        by workers forked before the publish, gives the inline run's
        predictions."""
        config = ResolverConfig()
        model = EntityResolver(config).fit(small_dataset, training_seed=0,
                                           pipeline=pipeline)
        payloads = [PredictBlockTask(
            config=config, fitted=model.blocks[block.query_name],
            block=block, graphs=None, pipeline=pipeline, evaluate=False)
            for block in small_dataset]
        inline = run_block_tasks(SerialExecutor(), "predict", payloads)
        stats = RunStats(phase="predict")
        with ProcessPoolBlockExecutor(workers=2,
                                      oversubscribe=True) as executor:
            executor.run(abs, [0, 1])
            results = run_block_tasks(executor, "predict", payloads,
                                      stats=stats)
        for *_, task_stats in results:
            stats.add_task(task_stats)
        assert ([result[:2] for result in results]
                == [result[:2] for result in inline])
        assert stats.shard_bytes_published > 0
        assert stats.attach_unpickle_seconds > 0.0

    def test_handle_dataclass_shape(self):
        handle = ShardHandle(shard_id="s", via="shm", location="loc",
                             nbytes=10)
        assert (handle.shard_id, handle.via) == ("s", "shm")


_WARM_POOL_SCRIPT = """
from repro.runtime.executor import ProcessPoolBlockExecutor
from repro.runtime.tasks import TASK_KINDS, run_block_tasks

TASK_KINDS["echo"] = lambda payload, attach_seconds=0.0: payload
with ProcessPoolBlockExecutor(workers=2, oversubscribe=True) as executor:
    executor.run(abs, [0, 1])
    assert run_block_tasks(executor, "echo", ["a", "b", "c", "d"]) == [
        "a", "b", "c", "d"]
"""


def test_pool_forked_before_first_publish_leaks_no_segment():
    """Workers forked before the process's first publish share its
    resource tracker, so their attaches leave nothing for a tracker to
    report or unlink again at exit."""
    source_root = os.path.dirname(os.path.dirname(repro.__file__))
    env = {**os.environ, "PYTHONPATH": source_root}
    finished = subprocess.run(
        [sys.executable, "-c", _WARM_POOL_SCRIPT], env=env,
        capture_output=True, text=True, timeout=120)
    assert finished.returncode == 0, finished.stderr
    assert "resource_tracker" not in finished.stderr, finished.stderr


class TestSharedMemoryDenied:
    """Where ``/dev/shm`` refuses a segment, shards travel as scratch
    files: same payloads, and nothing is left once the store closes."""

    @pytest.fixture
    def denied(self, monkeypatch):
        from multiprocessing import shared_memory

        def refuse(*args, **kwargs):
            raise OSError(13, "Permission denied", "/dev/shm")

        monkeypatch.setattr(shared_memory, "SharedMemory", refuse)
        published = []
        publish_file = ShardStore._publish_file

        def spy(store, shard_id, data):
            published.append(publish_file(store, shard_id, data))
            return published[-1]

        monkeypatch.setattr(ShardStore, "_publish_file", spy)
        return published

    @staticmethod
    def leftovers():
        return {name for name in os.listdir(tempfile.gettempdir())
                if name.startswith("repro-") and name.endswith(".shard")}

    def test_publish_falls_back_to_a_file_and_cleans_up(self, denied):
        before = self.leftovers()
        payload = {"values": [1.5, 2.5], "name": "denied"}
        with ShardStore() as store:
            handle = store.publish(payload)
            assert handle.via == "file"
            assert denied == [handle]
            shards_module._LOCAL.pop(handle.shard_id)
            assert load_shard(handle) == payload
            shards_module._ATTACHED.clear()
        assert not os.path.exists(handle.location)
        assert self.leftovers() == before

    def test_parallel_fit_gives_the_serial_partition(self, denied):
        dataset = repro.www05_like(seed=4, pages_per_name=8,
                                   names=["William Cohen", "Adam Cheyer",
                                          "Lynn Voss"])
        before = self.leftovers()
        resolver = EntityResolver(ResolverConfig())
        serial = resolver.fit(dataset, training_seed=0)
        with ProcessPoolBlockExecutor(workers=2,
                                      oversubscribe=True) as executor:
            pooled = resolver.fit(dataset, training_seed=0,
                                  executor=executor)
            assert executor.fork_waves == 1
            assert len(executor._pool._processes) == 2
        assert pooled.fit_stats.effective_workers == 2
        assert denied and all(handle.via == "file" for handle in denied)

        def partitions(model):
            return [(sorted(map(sorted, prediction.predicted)),
                     prediction.layer_accuracies)
                    for prediction in map(model.predict_block, dataset)]

        assert partitions(pooled) == partitions(serial)
        assert self.leftovers() == before
