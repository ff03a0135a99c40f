"""Shared-memory shard publication for the persistent process pool.

The old parallel runtime pickled every block task's full payload —
config, extraction pipeline, features, graphs — through the pool's task
pipe, once per block.  At realistic block counts the serialization cost
ate the parallel win.  This module inverts the data flow: the scheduling
side publishes the whole fan-out's data **once** as a *shard* (a single
``multiprocessing.shared_memory`` segment), and the per-task payloads
shrink to ``(shard handle, block index)`` descriptors of a few dozen
bytes.

Segment layout::

    [u64 pickled length][pickled residual][pad to 64][plane region]

The *residual* is the pickled payload — for plane-carrying fan-outs a
skeleton whose numeric bulk (feature dicts, quadratic graph weights) has
been replaced by tiny :mod:`repro.runtime.planes` headers.  The *plane
region* holds that bulk as flat aligned arrays, written once by the
publisher's :class:`~repro.runtime.planes.PlaneWriter` and never touched
by pickle again.  Plane-less payloads simply have an empty plane region,
so every consumer reads one format.

Three access paths, all bit-identical because they read the same bytes:

* **Same process** (serial fallbacks, the single-payload fast path):
  :func:`load_shard` finds the published object in the process-local
  registry and returns it without any serialization at all.
* **Forked after publish**: a worker forked while the shard was live
  inherits the registry entry copy-on-write — also zero-copy.
* **Forked before publish** (the persistent-pool steady state): the
  worker attaches the segment by name, unpickles the small residual
  (directly out of the mapped buffer — no copy of the segment is ever
  taken), binds the plane region as read-only ``np.frombuffer`` views,
  and caches the result per process.

Worker cache lifetime: attached segments stay **open** for as long as
the cache holds them — the numpy views point straight into the mapping.
The cache evicts by a byte budget (``REPRO_SHARD_CACHE_BYTES``, default
256 MiB), oldest shard first; eviction closes the segment or mmap so the
address space is returned.  A segment that still has live views refuses
to close (``BufferError``) — those shards park on a zombie list and are
closed on a later eviction pass once the views are gone, so views can
never dangle over unmapped memory, not even past the publisher's
:meth:`ShardStore.close`.

When ``multiprocessing.shared_memory`` is unavailable or refuses to
allocate (no ``/dev/shm``, exotic platforms), publication degrades to a
memory-mapped scratch file with identical semantics — the handle records
which transport to use, so callers never branch.

Lifecycle: a :class:`ShardStore` owns every segment it published and
unlinks them on :meth:`~ShardStore.close` (it is a context manager; the
scheduling side wraps each executor fan-out in one).  On POSIX, workers
that are still attached keep the memory alive until they close, so
unlinking immediately after the run is safe.
"""

from __future__ import annotations

import atexit
import mmap
import os
import pickle
import tempfile
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any

__all__ = [
    "DEFAULT_SHARD_CACHE_BYTES",
    "ShardHandle",
    "ShardStore",
    "attached_cache_bytes",
    "load_shard",
    "shard_cache_budget",
]

#: Byte budget for a worker's attached-shard cache when
#: ``REPRO_SHARD_CACHE_BYTES`` is unset.  Segments are shared pages, so
#: this bounds mapped address space per worker, not unique RSS.
DEFAULT_SHARD_CACHE_BYTES = 256 * 1024 * 1024

#: Alignment of the plane region after the pickled residual (matches
#: :mod:`repro.runtime.planes`).
_ALIGN = 64

_LENGTH_BYTES = 8


def shard_cache_budget() -> int:
    """The worker cache's byte budget (env-tunable, read per eviction)."""
    raw = os.environ.get("REPRO_SHARD_CACHE_BYTES")
    if not raw:
        return DEFAULT_SHARD_CACHE_BYTES
    try:
        return max(0, int(raw))
    except ValueError:
        return DEFAULT_SHARD_CACHE_BYTES


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) & ~(_ALIGN - 1)


@dataclass(frozen=True)
class ShardHandle:
    """A picklable pointer to one published shard.

    Attributes:
        shard_id: globally unique id (also the registry/cache key).
        via: transport — ``"shm"`` (shared memory segment) or ``"file"``
            (memory-mapped scratch file).
        location: segment name (``shm``) or file path (``file``).
        nbytes: total payload length inside the segment (length word +
            residual + plane region).
        pickled_bytes: length of the pickled residual — everything else
            crosses the process boundary without pickle.
    """

    shard_id: str
    via: str
    location: str
    nbytes: int
    pickled_bytes: int = 0

    @property
    def plane_bytes(self) -> int:
        """Bytes of the raw plane region (0 for plane-less shards)."""
        return max(0, self.nbytes
                   - _aligned(_LENGTH_BYTES + self.pickled_bytes))


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


def _untrack(segment) -> None:
    """Detach an *attached* segment from the resource tracker.

    Before 3.13 every ``SharedMemory(name=...)`` attach registers the
    segment with the process's resource tracker, which then both warns
    and unlinks it at exit — wrong for workers that merely read a
    segment the parent owns.  Unregistering restores owner-only
    cleanup semantics.

    Callers must skip this when the attaching process shares the
    publisher's tracker (same process, or forked from it — the fork
    pools this runtime uses): there the attach-time registration is an
    idempotent duplicate of the publisher's own, and unregistering
    would strip the *publisher's* entry, breaking unlink bookkeeping.
    """
    try:
        from multiprocessing import resource_tracker
        resource_tracker.unregister(segment._name, "shared_memory")
    except Exception:  # pragma: no cover - tracker internals moved
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

    def publish(self, payload: Any, label: str = "shard",
                planes=None, local_payload: Any = None) -> ShardHandle:
        """Serialize the residual once and lay the shard into a segment.

        ``planes`` is an optional :class:`~repro.runtime.planes.
        PlaneWriter` holding the payload's raw numeric bulk; its arrays
        are copied straight into the segment after the pickled residual,
        bypassing pickle entirely.  ``local_payload`` overrides what
        same-process (and forked-after-publish) loads resolve to — the
        scheduling side passes the *original* payload so those zero-copy
        paths never see plane skeletons.

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
        plane_nbytes = planes.nbytes if planes is not None else 0
        plane_base = _aligned(_LENGTH_BYTES + len(data))
        if plane_nbytes:
            total = plane_base + plane_nbytes
        else:
            total = _LENGTH_BYTES + len(data)
        shard_id = _next_shard_id(label)
        handle = None
        if self.prefer_shared_memory:
            handle = self._publish_shm(shard_id, data, planes, plane_base,
                                       total)
        if handle is None:
            handle = self._publish_file(shard_id, data, planes, plane_base,
                                        total)
        _LOCAL[shard_id] = payload if local_payload is None else local_payload
        self._shard_ids.append(shard_id)
        return handle

    @staticmethod
    def _fill(buffer, data: bytes, planes, plane_base: int) -> None:
        buffer[:_LENGTH_BYTES] = len(data).to_bytes(_LENGTH_BYTES, "little")
        buffer[_LENGTH_BYTES:_LENGTH_BYTES + len(data)] = data
        if planes is not None and planes.nbytes:
            planes.write_into(buffer, plane_base)

    def _publish_shm(self, shard_id: str, data: bytes, planes,
                     plane_base: int, total: int) -> ShardHandle | None:
        shared_memory = _shared_memory_module()
        if shared_memory is None:
            return None
        try:
            segment = shared_memory.SharedMemory(create=True,
                                                 size=max(1, total))
        except OSError:  # pragma: no cover - /dev/shm missing or full
            return None
        self._fill(segment.buf, data, planes, plane_base)
        self._segments.append(("shm", segment))
        return ShardHandle(shard_id=shard_id, via="shm",
                           location=segment.name, nbytes=total,
                           pickled_bytes=len(data))

    def _publish_file(self, shard_id: str, data: bytes, planes,
                      plane_base: int, total: int) -> ShardHandle:
        buffer = bytearray(total)
        self._fill(buffer, data, planes, plane_base)
        descriptor, path = tempfile.mkstemp(prefix=f"repro-{shard_id}-",
                                            suffix=".shard")
        with os.fdopen(descriptor, "wb") as handle:
            handle.write(buffer)
        self._segments.append(("file", path))
        return ShardHandle(shard_id=shard_id, via="file", location=path,
                           nbytes=total, pickled_bytes=len(data))

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


class _AttachedShard:
    """One worker-side attached segment: payload plus open resources.

    Keeps the segment (or mmap) open so plane views stay valid; closing
    happens in :meth:`detach`, which refuses (returns ``False``) while
    numpy views still export the buffer.
    """

    __slots__ = ("shard_id", "nbytes", "payload", "_view", "_closers")

    def __init__(self, shard_id: str, nbytes: int, payload: Any,
                 view, closers):
        self.shard_id = shard_id
        self.nbytes = nbytes
        self.payload = payload
        self._view = view
        self._closers = closers

    def detach(self) -> bool:
        """Release the buffer and close the segment; ``False`` if views
        are still live (the caller parks the shard and retries later)."""
        self.payload = None
        if self._view is not None:
            try:
                self._view.release()
            except BufferError:
                return False
            self._view = None
        while self._closers:
            closer = self._closers[-1]
            try:
                closer()
            except BufferError:  # pragma: no cover - raced view revival
                return False
            except OSError:  # pragma: no cover - already gone
                pass
            self._closers.pop()
        return True


#: Worker-side cache of attached shards, oldest first.
_ATTACHED: "OrderedDict[str, _AttachedShard]" = OrderedDict()

#: Evicted shards whose segments still had live views; retried on every
#: eviction pass and closed once the views are garbage.
_ZOMBIES: list[_AttachedShard] = []


def attached_cache_bytes() -> int:
    """Total bytes of segments the worker cache currently keeps open."""
    return sum(entry.nbytes for entry in _ATTACHED.values())


def _reap_zombies() -> None:
    _ZOMBIES[:] = [entry for entry in _ZOMBIES if not entry.detach()]


def _drain_at_exit() -> None:  # pragma: no cover - interpreter shutdown
    """Best-effort close of every attached segment at process exit.

    Dropping the cached payloads first releases their numpy views, so
    the segments usually close cleanly instead of raising ignored
    ``BufferError`` noise from ``SharedMemory.__del__`` during
    interpreter teardown.
    """
    while _ATTACHED:
        _, entry = _ATTACHED.popitem(last=False)
        if not entry.detach():
            _ZOMBIES.append(entry)
    import gc
    gc.collect()
    _reap_zombies()


atexit.register(_drain_at_exit)


def _pop_detach(shard_id: str) -> None:
    entry = _ATTACHED.pop(shard_id, None)
    if entry is not None and not entry.detach():
        _ZOMBIES.append(entry)


def _evict_over_budget(keep: str) -> None:
    budget = shard_cache_budget()
    while attached_cache_bytes() > budget:
        oldest = next(iter(_ATTACHED))
        if oldest == keep:
            break  # the newest shard stays resident even over budget
        _pop_detach(oldest)
    _reap_zombies()


def _attach(handle: ShardHandle) -> _AttachedShard:
    closers: list = []
    if handle.via == "shm":
        shared_memory = _shared_memory_module()
        if shared_memory is None:  # pragma: no cover - publisher had it
            raise RuntimeError(
                f"shard {handle.shard_id} was published via shared memory "
                f"but this process cannot import it")
        segment = shared_memory.SharedMemory(name=handle.location)
        # Shard ids embed the publisher pid; skip untracking when this
        # process shares the publisher's resource tracker (it *is* the
        # publisher, or was forked from it, as pool workers are).
        shares_tracker = (f"-{os.getpid()}-" in handle.shard_id
                          or f"-{os.getppid()}-" in handle.shard_id)
        if not shares_tracker:
            _untrack(segment)
        raw = segment.buf
        closers.append(segment.close)
    else:
        stream = open(handle.location, "rb")
        mapped = mmap.mmap(stream.fileno(), 0, access=mmap.ACCESS_READ)
        stream.close()
        raw = memoryview(mapped)
        closers.append(mapped.close)
    view = raw.toreadonly()
    pickled_length = int.from_bytes(view[:_LENGTH_BYTES], "little")
    payload = pickle.loads(view[_LENGTH_BYTES:_LENGTH_BYTES + pickled_length])
    plane_base = _aligned(_LENGTH_BYTES + pickled_length)
    binder = getattr(payload, "_bind_planes", None)
    if binder is not None and handle.nbytes > plane_base:
        payload = binder(view, plane_base)
    return _AttachedShard(shard_id=handle.shard_id, nbytes=handle.nbytes,
                          payload=payload, view=view, closers=closers)


def load_shard(handle: ShardHandle) -> Any:
    """The shard's payload, attaching and deserializing at most once.

    Resolution order: the process-local registry (publisher process, or
    a worker forked while the shard was live — zero-copy either way),
    then the attached cache, then an attach of the segment: the small
    residual unpickles straight out of the mapped buffer and the plane
    region binds as ``np.frombuffer`` views — the numeric bulk is never
    copied or unpickled.
    """
    payload = _LOCAL.get(handle.shard_id)
    if payload is not None:
        return payload
    entry = _ATTACHED.get(handle.shard_id)
    if entry is not None:
        _ATTACHED.move_to_end(handle.shard_id)
        return entry.payload
    entry = _attach(handle)
    _ATTACHED[handle.shard_id] = entry
    _evict_over_budget(keep=handle.shard_id)
    return entry.payload
