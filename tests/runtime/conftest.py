"""Fixtures shared by the runtime suites."""

from __future__ import annotations

import pytest


@pytest.fixture
def shared_memory_calls(monkeypatch):
    """Refuse every shared-memory segment and record each attempt.

    A pass ships its payloads through the pool's pipe, so it makes no
    attempt: the list stays empty.  Workers forked afterwards inherit
    the refusal, so a segment asked for in one fails its task.
    """
    from multiprocessing import shared_memory

    calls = []

    def refuse(*args, **kwargs):
        calls.append((args, kwargs))
        raise OSError(13, "Permission denied", "/dev/shm")

    monkeypatch.setattr(shared_memory, "SharedMemory", refuse)
    return calls
