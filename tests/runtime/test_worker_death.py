"""A pool worker killed with SIGKILL at the start, middle or end of a
fan-out, or while the pool idles between two.

The run raises ``BrokenProcessPool`` at once, leaves no worker process
behind and never asks for a shared-memory segment, and the next run on
the same executor forks a fresh pool and returns what a serial run
returns.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.runtime.executor import ProcessPoolBlockExecutor, SerialExecutor
from repro.runtime.tasks import run_block_tasks

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


def test_run_block_tasks_raises_cleans_up_and_recovers(
        executor, payloads, shared_memory_calls, tmp_path):
    before = set(multiprocessing.active_children())
    with pytest.raises(BrokenProcessPool):
        run_block_tasks(executor, _square_or_die, payloads)
    assert (tmp_path / "killed").exists()
    assert_no_worker_left(before)
    assert executor.fork_waves == 1

    assert run_block_tasks(executor, _square_or_die, payloads) == \
        run_block_tasks(SerialExecutor(), _square_or_die, payloads)
    assert executor.fork_waves == 2
    assert shared_memory_calls == []


def _square(payload):
    return payload * payload


def test_a_worker_killed_while_the_pool_idles(executor,
                                              shared_memory_calls):
    """A worker that dies between two runs (say, OOM-killed while the
    caller does other work) breaks the pool before the next run submits
    anything: that run raises ``BrokenProcessPool``, leaves no worker
    behind, and the run after it forks afresh."""
    payloads = list(range(8))
    expected = run_block_tasks(SerialExecutor(), _square, payloads)
    assert run_block_tasks(executor, _square, payloads) == expected
    pool = executor._pool
    before = set(multiprocessing.active_children()) - set(
        pool._processes.values())
    os.kill(next(iter(pool._processes)), signal.SIGKILL)
    deadline = time.monotonic() + 30
    while not pool._broken:  # the pool notices the death on its own
        assert time.monotonic() < deadline, "the pool never broke"
        time.sleep(0.01)

    with pytest.raises(BrokenProcessPool):
        run_block_tasks(executor, _square, payloads)
    assert_no_worker_left(before)
    assert executor.fork_waves == 1

    assert run_block_tasks(executor, _square, payloads) == expected
    assert executor.fork_waves == 2
    assert shared_memory_calls == []
