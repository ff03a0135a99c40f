"""Shared-memory shards: kept only for the frozen benchmark harness.

This module is off the fan-out path.  A collection pass ships its
payloads through the process pool's own pipe, in chunks
(:mod:`repro.runtime.tasks`, :mod:`repro.runtime.executor`); no module
of the package imports this one, and a parallel pass never touches
``/dev/shm``.  What is left is what the harness's
``runtime.shard_publish_s`` / ``runtime.shard_attach_s`` probes call
(``bench/layers.py``):

* :meth:`ShardStore.publish` pickles a payload once into a fresh
  ``multiprocessing.shared_memory`` segment and records the object in a
  process-local registry;
* :func:`load_shard` returns the registry's object in the publishing
  process, and elsewhere attaches the segment by name, unpickles and
  closes it;
* :meth:`ShardStore.close` (or scope exit) unlinks every segment the
  store published and drops its registry entries.
"""

from __future__ import annotations

import os
import pickle
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Any

__all__ = [
    "ShardHandle",
    "ShardStore",
    "load_shard",
]


@dataclass(frozen=True)
class ShardHandle:
    """A picklable pointer to one published shard.

    Attributes:
        shard_id: globally unique id (also the registry key).
        location: the shared-memory segment's name.
        nbytes: length of the pickled payload inside the segment.
    """

    shard_id: str
    location: str
    nbytes: int


#: Registry of live shard payloads in the publishing process: a load
#: there resolves without touching the segment.  Keyed by shard_id;
#: entries die with their store.
_LOCAL: dict[str, Any] = {}

_SEQUENCE = 0


def _next_shard_id(label: str) -> str:
    global _SEQUENCE
    _SEQUENCE += 1
    return f"{label}-{os.getpid()}-{_SEQUENCE}"


class ShardStore:
    """Publishes payloads as shards and owns their segments.

    A context manager: ``close()`` (or scope exit) unlinks every
    published segment and drops the local registry entries.
    """

    def __init__(self):
        self._segments: list[shared_memory.SharedMemory] = []
        self._shard_ids: list[str] = []
        self._closed = False

    def publish(self, payload: Any, label: str = "shard") -> ShardHandle:
        """Pickle ``payload`` once into a fresh segment.

        Raises:
            RuntimeError: when the store is already closed.
            OSError: when the segment cannot be allocated.
        """
        if self._closed:
            raise RuntimeError("ShardStore is closed; create a fresh one")
        data = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        segment = shared_memory.SharedMemory(create=True, size=len(data))
        segment.buf[:len(data)] = data
        self._segments.append(segment)
        shard_id = _next_shard_id(label)
        _LOCAL[shard_id] = payload
        self._shard_ids.append(shard_id)
        return ShardHandle(shard_id=shard_id, location=segment.name,
                           nbytes=len(data))

    def close(self) -> None:
        """Unlink every published segment and drop registry entries."""
        if self._closed:
            return
        self._closed = True
        for segment in self._segments:
            try:
                segment.close()
                segment.unlink()
            except OSError:  # pragma: no cover - already gone
                pass
        self._segments.clear()
        for shard_id in self._shard_ids:
            _LOCAL.pop(shard_id, None)
        self._shard_ids.clear()

    def __enter__(self) -> "ShardStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - GC timing
        try:
            self.close()
        except Exception:
            pass


def load_shard(handle: ShardHandle) -> Any:
    """The shard's payload: the registry's object in the publishing
    process, else an unpickled copy read straight out of the segment,
    which is closed at once.
    """
    payload = _LOCAL.get(handle.shard_id)
    if payload is not None:
        return payload
    segment = shared_memory.SharedMemory(name=handle.location)
    try:
        return pickle.loads(segment.buf)
    finally:
        segment.close()
