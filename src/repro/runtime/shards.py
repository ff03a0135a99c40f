"""Shared-memory shard publication for the persistent process pool.

The old parallel runtime pickled every block task's full payload —
config, extraction pipeline, features, graphs — through the pool's task
pipe, once per block.  At realistic block counts the serialization cost
ate the parallel win.  This module inverts the data flow: the scheduling
side publishes the whole fan-out's data **once** as a *shard* (a single
``multiprocessing.shared_memory`` segment holding the payload's pickle),
and the per-task payloads shrink to ``(shard handle, block index)``
descriptors of a few dozen bytes.

Three access paths, all bit-identical because they read the same bytes:

* **Same process** (serial fallbacks, the single-payload fast path):
  :func:`load_shard` finds the published object in the process-local
  registry and returns it without any serialization at all.
* **Forked after publish**: a worker forked while the shard was live
  inherits the registry entry copy-on-write — also zero-copy.
* **Forked before publish** (the persistent-pool steady state): the
  worker attaches the segment by name, unpickles straight out of the
  mapped buffer, and closes the segment at once — nothing the payload
  holds points into it.  The worker keeps the last shard it attached,
  so the fan-out's other tasks on that worker skip the attach: a
  fan-out is one shard, and the library never runs two fan-outs on one
  pool at once.

An attach registers the segment with the attaching process's resource
tracker.  :func:`share_tracker` starts the tracker before a pool forks,
so workers share the publisher's: their registrations duplicate its
own, and its unlink clears them.

When ``multiprocessing.shared_memory`` is unavailable or refuses to
allocate (no ``/dev/shm``, exotic platforms), publication degrades to a
memory-mapped scratch file with identical semantics — the handle records
which transport to use, so callers never branch.

Lifecycle: a :class:`ShardStore` owns every segment it published and
unlinks them on :meth:`~ShardStore.close` (it is a context manager; the
scheduling side wraps each executor fan-out in one).
"""

from __future__ import annotations

import mmap
import os
import pickle
import tempfile
from dataclasses import dataclass
from typing import Any

__all__ = [
    "ShardHandle",
    "ShardStore",
    "load_shard",
    "share_tracker",
]


@dataclass(frozen=True)
class ShardHandle:
    """A picklable pointer to one published shard.

    Attributes:
        shard_id: globally unique id (also the registry/cache key).
        via: transport — ``"shm"`` (shared memory segment) or ``"file"``
            (memory-mapped scratch file).
        location: segment name (``shm``) or file path (``file``).
        nbytes: length of the pickled payload inside the segment.
    """

    shard_id: str
    via: str
    location: str
    nbytes: int


#: Parent-side registry of live shard payloads: same-process loads (and
#: children forked while a shard is live) resolve here without touching
#: the segment.  Keyed by shard_id; entries die with their store.
_LOCAL: dict[str, Any] = {}

_SEQUENCE = 0


def _next_shard_id(label: str) -> str:
    global _SEQUENCE
    _SEQUENCE += 1
    return f"{label}-{os.getpid()}-{_SEQUENCE}"


def _shared_memory_module():
    """The shared_memory module, or ``None`` where unsupported."""
    try:
        from multiprocessing import shared_memory
    except ImportError:  # pragma: no cover - exotic platforms
        return None
    return shared_memory


def share_tracker() -> None:
    """Start this process's resource tracker, so that processes forked
    from now on share it.

    A worker forked before the tracker runs starts one of its own on
    its first attach; when the worker exits, that tracker reports the
    segments it saw as leaked and tries to unlink them again.
    """
    try:
        from multiprocessing import resource_tracker
        resource_tracker.ensure_running()
    except (ImportError, OSError):  # pragma: no cover - no tracker
        pass


class ShardStore:
    """Publishes payloads as shards and owns their segments.

    A context manager: ``close()`` (or scope exit) unlinks every
    published segment and drops the local registry entries.  One store
    per executor fan-out is the intended granularity — publish, run,
    close.
    """

    def __init__(self, prefer_shared_memory: bool = True):
        self.prefer_shared_memory = prefer_shared_memory
        self._segments: list[tuple[str, Any]] = []
        self._shard_ids: list[str] = []
        self._closed = False

    def publish(self, payload: Any, label: str = "shard") -> ShardHandle:
        """Pickle ``payload`` once into a fresh segment.

        Returns the :class:`ShardHandle` tasks should carry.  Falls back
        from shared memory to a memory-mapped scratch file when the
        segment cannot be allocated.

        Raises:
            RuntimeError: when the store is already closed.
        """
        if self._closed:
            raise RuntimeError("ShardStore is closed; create a fresh one "
                               "per executor fan-out")
        data = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        shard_id = _next_shard_id(label)
        handle = None
        if self.prefer_shared_memory:
            handle = self._publish_shm(shard_id, data)
        if handle is None:
            handle = self._publish_file(shard_id, data)
        _LOCAL[shard_id] = payload
        self._shard_ids.append(shard_id)
        return handle

    def _publish_shm(self, shard_id: str, data: bytes) -> ShardHandle | None:
        shared_memory = _shared_memory_module()
        if shared_memory is None:
            return None
        try:
            segment = shared_memory.SharedMemory(create=True, size=len(data))
        except OSError:  # /dev/shm missing, denied or full
            return None
        segment.buf[:len(data)] = data
        self._segments.append(("shm", segment))
        return ShardHandle(shard_id=shard_id, via="shm",
                           location=segment.name, nbytes=len(data))

    def _publish_file(self, shard_id: str, data: bytes) -> ShardHandle:
        descriptor, path = tempfile.mkstemp(prefix=f"repro-{shard_id}-",
                                            suffix=".shard")
        with os.fdopen(descriptor, "wb") as handle:
            handle.write(data)
        self._segments.append(("file", path))
        return ShardHandle(shard_id=shard_id, via="file", location=path,
                           nbytes=len(data))

    def close(self) -> None:
        """Unlink every published segment and drop registry entries."""
        if self._closed:
            return
        self._closed = True
        for kind, segment in self._segments:
            try:
                if kind == "shm":
                    segment.close()
                    segment.unlink()
                else:
                    os.unlink(segment)
            except (OSError, FileNotFoundError):  # pragma: no cover
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


#: Worker-side cache: the last shard this process attached, by id.
_ATTACHED: dict[str, Any] = {}


def _attach(handle: ShardHandle) -> Any:
    """Unpickle the shard straight out of its segment, then close it."""
    if handle.via == "shm":
        shared_memory = _shared_memory_module()
        if shared_memory is None:  # pragma: no cover - publisher had it
            raise RuntimeError(
                f"shard {handle.shard_id} was published via shared memory "
                f"but this process cannot import it")
        segment = shared_memory.SharedMemory(name=handle.location)
        try:
            return pickle.loads(segment.buf)
        finally:
            segment.close()
    with open(handle.location, "rb") as stream, mmap.mmap(
            stream.fileno(), 0, access=mmap.ACCESS_READ) as mapped:
        return pickle.loads(mapped)


def load_shard(handle: ShardHandle) -> Any:
    """The shard's payload, attaching and deserializing at most once per
    fan-out.

    Resolution order: the process-local registry (publisher process, or
    a worker forked while the shard was live — zero-copy either way),
    then the last attached shard, then an attach of the segment, which
    replaces it.
    """
    payload = _LOCAL.get(handle.shard_id)
    if payload is not None:
        return payload
    payload = _ATTACHED.get(handle.shard_id)
    if payload is None:
        payload = _attach(handle)
        _ATTACHED.clear()
        _ATTACHED[handle.shard_id] = payload
    return payload
