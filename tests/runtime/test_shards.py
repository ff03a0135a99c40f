"""Shared-memory shard publication and the sharded task dispatch."""

from __future__ import annotations

import os
import pickle

import pytest

from repro.core.config import ResolverConfig
from repro.core.resolver import EntityResolver
from repro.runtime import shards as shards_module
from repro.runtime.executor import ProcessPoolBlockExecutor
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


def _drain_worker_cache():
    """Detach every cached segment so tests leave no open mappings."""
    while shards_module._ATTACHED:
        shard_id = next(iter(shards_module._ATTACHED))
        shards_module._pop_detach(shard_id)
    shards_module._reap_zombies()


class _PlaneProbe:
    """Minimal payload exposing one plane array via ``_bind_planes``."""

    def __init__(self, spec, array=None):
        self.spec = spec
        self.array = array

    def _bind_planes(self, view, base):
        from repro.runtime import planes

        return _PlaneProbe(self.spec,
                           planes.PlaneBuffer(view, base).array(self.spec))


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

    def test_segment_roundtrips_without_local_registry(self):
        """The worker path: attach the segment and unpickle."""
        payload = {"values": [1.5, 2.5], "name": "roundtrip"}
        with ShardStore() as store:
            handle = store.publish(payload)
            shards_module._LOCAL.pop(handle.shard_id)
            loaded = load_shard(handle)
            assert loaded == payload
            assert loaded is not payload
            _drain_worker_cache()

    def test_file_fallback_roundtrips(self):
        payload = {"via": "file", "data": list(range(50))}
        with ShardStore(prefer_shared_memory=False) as store:
            handle = store.publish(payload)
            assert handle.via == "file"
            assert os.path.exists(handle.location)
            shards_module._LOCAL.pop(handle.shard_id)
            assert load_shard(handle) == payload
            _drain_worker_cache()
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

    def test_worker_cache_evicts_by_byte_budget(self, monkeypatch):
        """Attached segments are evicted oldest-first past the budget."""
        payload = {"blob": "x" * 4096}
        with ShardStore() as store:
            handles = [store.publish(dict(payload, index=index))
                       for index in range(4)]
            budget = handles[0].nbytes * 2
            monkeypatch.setenv("REPRO_SHARD_CACHE_BYTES", str(budget))
            for handle in handles:
                shards_module._LOCAL.pop(handle.shard_id)
            for index, handle in enumerate(handles):
                assert load_shard(handle)["index"] == index
            assert shards_module.attached_cache_bytes() <= budget
            assert len(shards_module._ATTACHED) == 2
            # Oldest evicted, newest kept.
            assert handles[0].shard_id not in shards_module._ATTACHED
            assert handles[3].shard_id in shards_module._ATTACHED
            # Evicted shards re-attach from their segment on demand.
            assert load_shard(handles[0])["index"] == 0
            _drain_worker_cache()

    def test_newest_shard_survives_a_zero_budget(self, monkeypatch):
        """The shard being loaded is never evicted out from under its
        caller, even when the budget cannot hold it."""
        monkeypatch.setenv("REPRO_SHARD_CACHE_BYTES", "0")
        with ShardStore() as store:
            handle = store.publish({"kept": True})
            shards_module._LOCAL.pop(handle.shard_id)
            assert load_shard(handle) == {"kept": True}
            assert list(shards_module._ATTACHED) == [handle.shard_id]
            _drain_worker_cache()

    def test_eviction_with_live_views_defers_to_zombie_list(self,
                                                            monkeypatch):
        """A segment whose planes are still referenced must not unmap."""
        np = pytest.importorskip("numpy")
        from repro.runtime import planes

        writer = planes.PlaneWriter()
        spec = writer.add(np.arange(64, dtype=np.float64))
        monkeypatch.setenv("REPRO_SHARD_CACHE_BYTES", "0")
        with ShardStore() as store:
            handle = store.publish(_PlaneProbe(spec), planes=writer)
            shards_module._LOCAL.pop(handle.shard_id)
            probe = load_shard(handle)
            array = probe.array  # live np.frombuffer view into the segment
            assert array.tolist() == list(range(64))
            # Force eviction of the only cached shard while the view is
            # alive: it must park on the zombie list, not unmap.
            shards_module._pop_detach(handle.shard_id)
            assert shards_module._ZOMBIES
            assert array.tolist() == list(range(64))  # still readable
            del probe, array
            shards_module._reap_zombies()
            assert not shards_module._ZOMBIES

    def test_handle_records_pickled_and_plane_bytes(self):
        np = pytest.importorskip("numpy")
        from repro.runtime import planes

        writer = planes.PlaneWriter()
        writer.add(np.zeros(1000, dtype=np.float64))
        with ShardStore() as store:
            handle = store.publish({"tiny": True}, planes=writer)
            assert handle.plane_bytes >= 8000
            assert handle.pickled_bytes < 100
            assert handle.nbytes >= handle.pickled_bytes + handle.plane_bytes

    def test_local_payload_overrides_same_process_loads(self):
        original = {"original": True}
        skeleton = {"skeleton": True}
        with ShardStore() as store:
            handle = store.publish(skeleton, local_payload=original)
            assert load_shard(handle) is original
            shards_module._LOCAL.pop(handle.shard_id)
            assert load_shard(handle) == skeleton
            _drain_worker_cache()


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

    def test_predict_fanout_ships_features_as_planes(self, small_dataset,
                                                     pipeline, monkeypatch):
        """A predict fan-out carrying features: with planes on, every
        payload's features leave the pickle stream (no fallback), the
        residual shrinks below the pickle-everything wire format, the
        workers report their attach time, and both formats give the
        same predictions."""
        config = ResolverConfig()
        model = EntityResolver(config).fit(small_dataset, training_seed=0,
                                           pipeline=pipeline)
        payloads = [PredictBlockTask(
            config=config, fitted=model.blocks[block.query_name],
            block=block, graphs=None, pipeline=None, evaluate=False,
            features=pipeline.extract_block(block))
            for block in small_dataset]
        runs = {}
        with ProcessPoolBlockExecutor(workers=2,
                                      oversubscribe=True) as executor:
            # Pickled first: the pool it forks then attaches the plane
            # leg's segment, the steady state of a persistent pool.
            for planes in ("0", "1"):
                monkeypatch.setenv("REPRO_SHARD_PLANES", planes)
                stats = RunStats(phase="predict")
                results = run_block_tasks(executor, "predict", payloads,
                                          stats=stats)
                for *_, task_stats in results:
                    stats.add_task(task_stats)
                runs[planes] = ([result[:2] for result in results], stats)
        (pickled, pickle_stats), (planed, plane_stats) = runs["0"], runs["1"]
        assert planed == pickled
        assert plane_stats.plane_fallback_payloads == 0
        assert plane_stats.plane_payloads == len(payloads)
        assert plane_stats.plane_bytes > 0
        assert plane_stats.pickled_bytes < pickle_stats.pickled_bytes
        assert pickle_stats.plane_payloads == 0
        assert plane_stats.attach_unpickle_seconds > 0.0

    def test_handle_dataclass_shape(self):
        handle = ShardHandle(shard_id="s", via="shm", location="loc",
                             nbytes=10)
        assert (handle.shard_id, handle.via) == ("s", "shm")
