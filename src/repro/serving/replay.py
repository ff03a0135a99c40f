"""Serial replay of an engine journal — the determinism oracle.

The engine's correctness claim is *serial equivalence*: any interleaving
of concurrent callers produces exactly the clusters that a plain
:class:`~repro.pipeline.session.ResolutionSession` produces when the same
work is replayed one unit at a time in admission order.  This module is
the oracle for that claim: :func:`replay_journal` re-executes a journal
(recorded with ``ServingEngine(record_journal=True)``) through fresh
serial sessions — one per model snapshot version, mirroring the engine's
per-snapshot state — and :func:`verify_serial_equivalence` compares the
two executions **bit for bit**: per-unit assignments (doc ids, entity
ids, link probabilities as exact floats), the final partition of every
prepared name, LRU order and eviction counts, and the session counters.

The concurrency test-suite (``tests/serving/``) and the benchmark
harness (``bench/``) call the verifier after driving an engine; a
failure report names every divergent sequence number, so
scheduler-dependent bugs surface with the unit that exposed them rather
than as a vague mismatch.
"""

from __future__ import annotations

from typing import Any

from repro.pipeline.session import ResolutionSession

__all__ = ["replay_journal", "verify_serial_equivalence"]


def replay_journal(engine) -> dict[int, dict[str, Any]]:
    """Re-execute an engine's journal through fresh serial sessions.

    Units are replayed strictly in admission (``seq``) order, each as
    one ``resolve`` call against a serial session for the unit's
    snapshot version, configured exactly like the engine's snapshots
    (same model, pipeline, ``max_blocks``, ``model_block``).

    Args:
        engine: a :class:`~repro.serving.engine.ServingEngine`
            constructed with ``record_journal=True``.

    Returns:
        ``{version: {"session": ResolutionSession,
        "outcomes": {seq: list[Assignment] | Exception}}}`` — one entry
        per snapshot version that admitted traffic.  Units that failed
        on the engine are expected to fail identically in replay; the
        raised exception is captured as the outcome.

    Raises:
        ValueError: if the engine recorded no journal.
    """
    if engine.journal is None:
        raise ValueError(
            "engine has no journal; construct it with record_journal=True")
    replayed: dict[int, dict[str, Any]] = {}
    for entry in sorted(engine.journal, key=lambda entry: entry["seq"]):
        version = entry["version"]
        if version not in replayed:
            snapshot = engine.snapshots[version]
            replayed[version] = {
                "session": ResolutionSession(
                    snapshot.model, pipeline=snapshot.pipeline,
                    max_blocks=engine.max_blocks,
                    model_block=engine.model_block),
                "outcomes": {},
            }
        session = replayed[version]["session"]
        try:
            outcome = session.resolve(entry["pages"],
                                      features=entry["features"])
        except (KeyError, ValueError) as error:
            outcome = error
        replayed[version]["outcomes"][entry["seq"]] = outcome
    return replayed


def _compare_version(engine, version: int,
                     replay: dict[str, Any]) -> list[str]:
    """All divergences between one snapshot and its serial replay."""
    diffs: list[str] = []
    engine_session = engine.snapshots[version].session
    serial = replay["session"]

    for entry in engine.journal:
        if entry["version"] != version:
            continue
        seq = entry["seq"]
        outcome = replay["outcomes"][seq]
        if isinstance(outcome, Exception):
            if entry["assignments"] is not None:
                diffs.append(
                    f"seq {seq}: replay raised {outcome!r} but the engine "
                    f"assigned {len(entry['assignments'])} pages")
            continue
        if entry["assignments"] is None:
            diffs.append(
                f"seq {seq}: engine failed this unit but replay assigned "
                f"{len(outcome)} pages")
            continue
        if entry["assignments"] != outcome:
            diffs.append(
                f"seq {seq} ({entry['query_name']}): assignments diverge "
                f"(engine {entry['assignments']} vs serial {outcome})")

    engine_names = engine_session.prepared_names()
    serial_names = serial.prepared_names()
    if engine_names != serial_names:
        diffs.append(f"prepared names (LRU order) diverge: engine "
                     f"{engine_names} vs serial {serial_names}")
    for name in engine_names:
        if name not in serial_names:
            continue
        engine_clusters = engine_session.clusters(name)
        serial_clusters = serial.clusters(name)
        if engine_clusters != serial_clusters:
            diffs.append(f"final partition of {name!r} diverges: engine "
                         f"{engine_clusters} vs serial {serial_clusters}")

    for counter in ("incremental_assignments", "routed_pages",
                    "new_entities", "prepared_blocks", "evicted_blocks"):
        engine_value = getattr(engine_session.stats, counter)
        serial_value = getattr(serial.stats, counter)
        if engine_value != serial_value:
            diffs.append(f"stats.{counter} diverges: engine {engine_value} "
                         f"vs serial {serial_value}")
    return diffs


def verify_serial_equivalence(engine) -> dict[str, Any]:
    """Replay the journal and diff it against the engine, bitwise.

    Returns:
        ``{"identical": bool, "units": int, "versions": [..],
        "diffs": [str, ...]}`` — ``diffs`` is empty exactly when the
        concurrent execution is bit-identical to its serial replay.
        ``stats.requests``/latency are deliberately *not* compared: the
        engine counts caller requests while the replay counts units, and
        wall-clock timings are scheduler noise, not state.
    """
    replayed = replay_journal(engine)
    diffs: list[str] = []
    for version, replay in sorted(replayed.items()):
        diffs.extend(_compare_version(engine, version, replay))
    return {
        "identical": not diffs,
        "units": len(engine.journal),
        "versions": sorted(replayed),
        "diffs": diffs,
    }
