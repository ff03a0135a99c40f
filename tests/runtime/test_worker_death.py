"""A pool worker killed with SIGKILL at the start, middle or end of a
fan-out, or while the pool idles between two.

The run raises ``BrokenProcessPool`` at once, leaves no worker process
and no published shard behind, and the next run on the same executor
forks a fresh pool and returns what a serial run returns.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.runtime import shards as shards_module
from repro.runtime.executor import ProcessPoolBlockExecutor, SerialExecutor
from repro.runtime.shards import load_shard
from repro.runtime.tasks import TASK_KINDS, run_block_tasks

#: The test process: it never kills itself, only its forked workers do.
_HOST_PID = os.getpid()


def _square_or_die(payload):
    """Square ``value``; a worker running the ``doomed`` payload for the
    first time (no ``marker`` file yet) kills itself instead."""
    value, doomed, marker = payload
    if (value == doomed and os.getpid() != _HOST_PID
            and not os.path.exists(marker)):
        open(marker, "x").close()
        os.kill(os.getpid(), signal.SIGKILL)
    return value * value


def _square_or_die_body(payload, attach_seconds=0.0):
    return _square_or_die(payload)


@pytest.fixture(params=[0, 3, 7], ids=["first", "middle", "last"])
def payloads(request, tmp_path):
    """Eight payloads; the worker running the first, a middle or the
    last one dies."""
    marker = str(tmp_path / "killed")
    return [(value, request.param, marker) for value in range(8)]


@pytest.fixture
def executor():
    with ProcessPoolBlockExecutor(workers=2, oversubscribe=True) as pool:
        yield pool


@pytest.fixture
def die_kind():
    TASK_KINDS["square_or_die"] = _square_or_die_body
    yield "square_or_die"
    TASK_KINDS.pop("square_or_die", None)


def assert_no_worker_left(before):
    # Module-scoped pools of other test modules may still be alive, so
    # the check is that this run added no process, not that none exist.
    assert set(multiprocessing.active_children()) <= before


def test_executor_run_raises_cleans_up_and_recovers(executor, payloads,
                                                    tmp_path):
    before = set(multiprocessing.active_children())
    with pytest.raises(BrokenProcessPool):
        executor.run(_square_or_die, payloads)
    assert (tmp_path / "killed").exists()
    assert_no_worker_left(before)
    assert executor.fork_waves == 1

    assert executor.run(_square_or_die, payloads) == SerialExecutor().run(
        _square_or_die, payloads)
    assert executor.fork_waves == 2


def test_run_block_tasks_raises_cleans_up_and_recovers(executor, payloads,
                                                       published, die_kind,
                                                       tmp_path):
    before = set(multiprocessing.active_children())
    with pytest.raises(BrokenProcessPool):
        run_block_tasks(executor, die_kind, payloads)
    assert (tmp_path / "killed").exists()
    assert_no_worker_left(before)
    (handle,) = published
    assert handle.shard_id not in shards_module._LOCAL
    with pytest.raises(OSError):
        load_shard(handle)  # the segment or file is unlinked
    assert executor.fork_waves == 1

    assert run_block_tasks(executor, die_kind, payloads) == run_block_tasks(
        SerialExecutor(), die_kind, payloads)
    assert executor.fork_waves == 2


def _square_body(payload, attach_seconds=0.0):
    return payload * payload


@pytest.fixture
def square_kind():
    TASK_KINDS["square"] = _square_body
    yield "square"
    TASK_KINDS.pop("square", None)


def test_a_worker_killed_while_the_pool_idles(executor, published,
                                              square_kind):
    """A worker that dies between two runs (say, OOM-killed while the
    caller does other work) breaks the pool before the next run submits
    anything: that run raises ``BrokenProcessPool``, leaves no worker or
    shard behind, and the run after it forks afresh."""
    payloads = list(range(8))
    expected = run_block_tasks(SerialExecutor(), square_kind, payloads)
    assert run_block_tasks(executor, square_kind, payloads) == expected
    pool = executor._pool
    before = set(multiprocessing.active_children()) - set(
        pool._processes.values())
    os.kill(next(iter(pool._processes)), signal.SIGKILL)
    deadline = time.monotonic() + 30
    while not pool._broken:  # the pool notices the death on its own
        assert time.monotonic() < deadline, "the pool never broke"
        time.sleep(0.01)

    with pytest.raises(BrokenProcessPool):
        run_block_tasks(executor, square_kind, payloads)
    assert_no_worker_left(before)
    for handle in published:
        assert handle.shard_id not in shards_module._LOCAL
        with pytest.raises(OSError):
            load_shard(handle)
    assert executor.fork_waves == 1

    assert run_block_tasks(executor, square_kind, payloads) == expected
    assert executor.fork_waves == 2
