"""Concurrent serving on top of the online request path.

The pieces, bottom-up:

- :mod:`repro.serving.snapshot` — copy-on-write model generations for
  hot swaps.
- :mod:`repro.serving.engine` — the thread-safe engine: it schedules
  the session's ``admit`` (under one lock) and ``process`` (per-name
  FIFO lanes with leader/follower batching), deterministic by
  serial-replay equivalence.
- :mod:`repro.serving.replay` — the determinism oracle (journal replay
  through a serial session, bitwise diff).
- :mod:`repro.serving.loadgen` — closed-loop multi-threaded load
  generator with exact latency percentiles.
"""

from repro.serving.engine import EngineStats, ServingEngine
from repro.serving.loadgen import LoadReport, LoadRequest, run_load
from repro.serving.replay import replay_journal, verify_serial_equivalence
from repro.serving.snapshot import ModelSnapshot

__all__ = [
    "EngineStats",
    "LoadReport",
    "LoadRequest",
    "ModelSnapshot",
    "ServingEngine",
    "replay_journal",
    "run_load",
    "verify_serial_equivalence",
]
