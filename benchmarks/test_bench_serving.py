"""SERVING — the concurrent engine vs serial request-path serving.

Drives a :class:`~repro.serving.engine.ServingEngine` with closed-loop
load-generator threads (:mod:`repro.serving.loadgen`) and records three
properties, matching the engine's contract:

1. **Determinism** — every engine run records an admission journal, and
   replaying it through a plain serial
   :class:`~repro.pipeline.session.ResolutionSession` must reproduce
   assignments, final partitions, LRU order and counters **bit for
   bit** (:func:`~repro.serving.replay.verify_serial_equivalence`).
   Asserted at every scale, for every run, including the swap run.
2. **Throughput** — multi-threaded serving must beat the single-thread
   closed loop on sustained QPS at the default scale.  Pure-Python
   threads share the GIL, so the win comes from *request coalescing*:
   queued same-name requests are scored in one masked sweep with
   per-page inputs prepared once per batch (~1.2-1.3x algorithmic
   saving, ``docs/serving.md``), which singleton serving cannot access.
   The QPS comparison therefore runs the coalescing scenario in its
   pure form: one deep hot name (``REPRO_BENCH_SERVING_PAGES``, default
   240) hammered by every worker at once — the stampede a trending
   query produces.  Requests must be scoring-bound for the margin to
   clear host noise, so the assertion gates at >= 100 pages; smaller
   (smoke) scales record the ratio only.  Runs are interleaved
   best-of-``REPRO_BENCH_SERVING_REPS`` with the GC paused to
   decorrelate host noise, and the interpreter switch interval is
   lowered to 0.5ms during load so follower threads can actually queue
   (the 5ms default lets one worker burn a whole batch per time slice).
3. **Hot swap under traffic** — a model swap injected mid-run over
   mixed multi-name traffic must lose zero requests, stall admissions
   no longer than a pointer move, and keep both generations' journals
   serially replayable.

Each run appends a ``"scenario": "serving"`` record to
``benchmarks/out/BENCH_runtime.json``; ``docs/performance.md`` documents
the format.
"""

from __future__ import annotations

import gc
import json
import os
import sys
from pathlib import Path

import pytest

from repro.core.config import ResolverConfig
from repro.core.resolver import EntityResolver
from repro.corpus.datasets import www05_like
from repro.corpus.documents import DocumentCollection
from repro.corpus.vocabulary import build_vocabulary
from repro.extraction.pipeline import ExtractionPipeline
from repro.serving import (
    LoadRequest,
    ServingEngine,
    run_load,
    verify_serial_equivalence,
)

BENCH_PATH = Path(__file__).resolve().parent / "out" / "BENCH_runtime.json"

#: The QPS comparison uses one deep block: scaling is about same-name
#: contention (stampedes that coalesce), not about fanning out names.
#: The side names carry the mixed determinism + hot-swap runs.
HOT_NAME = "William Cohen"
SIDE_NAMES = ["Adam Cheyer", "Lynn Voss"]
SIDE_PAGES = 30
LOAD_SWITCH_INTERVAL = 0.0005


def _serving_pages() -> int:
    return int(os.environ.get("REPRO_BENCH_SERVING_PAGES", "240"))


def _serving_reps() -> int:
    return int(os.environ.get("REPRO_BENCH_SERVING_REPS", "3"))


def _serving_threads() -> int:
    return int(os.environ.get("REPRO_BENCH_SERVING_THREADS", "12"))


@pytest.fixture(scope="module")
def serving_record():
    """Run every serving scenario once; the tests assert on the record."""
    pages = _serving_pages()
    reps = _serving_reps()
    max_threads = max(4, _serving_threads())
    mid_threads = max(2, max_threads - 4)

    hot_dataset = www05_like(seed=11, pages_per_name=pages,
                             names=[HOT_NAME])
    side_dataset = www05_like(seed=12, pages_per_name=SIDE_PAGES,
                              names=SIDE_NAMES)
    dataset = DocumentCollection(
        name="serving-bench",
        collections=[*hot_dataset.collections, *side_dataset.collections])
    vocabulary = build_vocabulary(seed=7)
    pipeline = ExtractionPipeline.from_vocabulary(
        vocabulary, query_names=[HOT_NAME, *SIDE_NAMES])
    model = EntityResolver(ResolverConfig()).fit(dataset, training_seed=0,
                                                 pipeline=pipeline)
    swap_model = EntityResolver(ResolverConfig()).fit(dataset,
                                                      training_seed=1,
                                                      pipeline=pipeline)
    features = dict(pipeline.extract_block(hot_dataset.by_name(HOT_NAME)))
    for name in SIDE_NAMES:
        features.update(pipeline.extract_block(side_dataset.by_name(name)))

    def _request(page) -> LoadRequest:
        return LoadRequest(pages=[page],
                           features={page.doc_id: features[page.doc_id]})

    def _warm_request(block_pages) -> LoadRequest:
        return LoadRequest(
            pages=list(block_pages),
            features={p.doc_id: features[p.doc_id] for p in block_pages})

    hot_pages = list(hot_dataset.by_name(HOT_NAME).pages)
    warm = max(1, pages // 3)
    hot_warm = [_warm_request(hot_pages[:warm])]
    hot_stream = [_request(page) for page in hot_pages[warm:]]

    side_warm = max(1, SIDE_PAGES // 3)
    mixed_warm = list(hot_warm)
    mixed_stream = list(hot_stream)
    for name in SIDE_NAMES:
        block_pages = list(side_dataset.by_name(name).pages)
        mixed_warm.append(_warm_request(block_pages[:side_warm]))
        for offset, page in enumerate(block_pages[side_warm:]):
            # Splice side-name traffic through the hot stream so the
            # mixed runs exercise cross-lane concurrency.
            slot = min(len(mixed_stream), (offset + 1) * 7)
            mixed_stream.insert(slot, _request(page))

    def _run(threads: int, batch_window: float, warm_requests,
             stream_requests, swap_plan=None) -> tuple[dict, ServingEngine]:
        engine = ServingEngine(model, pipeline=pipeline, max_batch=16,
                               batch_window=batch_window,
                               record_journal=True)
        for request in warm_requests:  # bootstraps outside the timed loop
            engine.resolve(request.pages, features=request.features)
        report = run_load(engine, stream_requests, threads=threads,
                          swap_plan=dict(swap_plan) if swap_plan else None)
        replay = verify_serial_equivalence(engine)
        result = report.to_dict()
        result["batch_window"] = batch_window
        result["engine"] = engine.stats.to_dict()
        result["replay_identical"] = replay["identical"]
        result["replay_units"] = replay["units"]
        result["replay_versions"] = replay["versions"]
        result["replay_diffs"] = replay["diffs"][:10]
        return result, engine

    configs = {
        "threads_1": (1, 0.0),
        f"threads_{mid_threads}": (mid_threads, 0.002),
        f"threads_{max_threads}": (max_threads, 0.002),
    }
    runs: dict[str, dict] = {}
    switch_before = sys.getswitchinterval()
    gc_was_enabled = gc.isenabled()
    sys.setswitchinterval(LOAD_SWITCH_INTERVAL)
    gc.disable()
    try:
        # Interleave reps so host noise hits every config alike; keep
        # each config's best run (noise only ever slows a run down).
        for _ in range(reps):
            for label, (threads, window) in configs.items():
                result, _engine = _run(threads, window, hot_warm,
                                       hot_stream)
                if (label not in runs
                        or result["qps"] > runs[label]["qps"]):
                    runs[label] = result

        mixed_result, _mixed_engine = _run(4, 0.002, mixed_warm,
                                           mixed_stream)
        swap_at = max(1, len(mixed_stream) // 2)
        swap_result, swap_engine = _run(
            4, 0.002, mixed_warm, mixed_stream,
            swap_plan={swap_at: swap_model})
    finally:
        sys.setswitchinterval(switch_before)
        if gc_was_enabled:
            gc.enable()

    single = runs["threads_1"]
    multi_label, multi = max(
        ((label, run) for label, run in runs.items() if label != "threads_1"),
        key=lambda item: item[1]["qps"])
    record = {
        "scenario": "serving",
        "pages_per_name": pages,
        "side_names": len(SIDE_NAMES),
        "side_pages_per_name": SIDE_PAGES,
        "reps": reps,
        "warm_pages": warm,
        "stream_requests": len(hot_stream),
        "mixed_stream_requests": len(mixed_stream),
        "load_switch_interval": LOAD_SWITCH_INTERVAL,
        "runs": runs,
        "single_thread_qps": single["qps"],
        "best_multi_thread_qps": multi["qps"],
        "best_multi_thread_config": multi_label,
        "multi_over_single_qps_ratio": (
            multi["qps"] / single["qps"] if single["qps"] else 0.0),
        "mixed": mixed_result,
        "swap": {
            **swap_result,
            "swap_at_request": swap_at,
            "swaps": swap_engine.stats.swaps,
            "swap_stall_seconds": swap_engine.stats.swap_stall_seconds,
            "final_version": swap_engine.snapshot.version,
        },
    }
    _append_trajectory(record)
    return record


def _append_trajectory(record: dict) -> None:
    payload = {"benchmark": "runtime", "runs": []}
    if BENCH_PATH.exists():
        try:
            existing = json.loads(BENCH_PATH.read_text())
            if isinstance(existing.get("runs"), list):
                payload["runs"] = existing["runs"]
        except (json.JSONDecodeError, OSError):
            pass  # start a fresh trajectory over a corrupt file
    payload["runs"].append(record)
    BENCH_PATH.parent.mkdir(exist_ok=True)
    BENCH_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


class TestServingBench:
    def test_every_run_is_bit_identical_to_serial_replay(self,
                                                         serving_record):
        """Criterion (a): concurrency must never change results — every
        load run's journal replays bit-identically through a serial
        session, at any scale, including mixed traffic and mid-swap."""
        for label, run in serving_record["runs"].items():
            assert run["replay_identical"], (label, run["replay_diffs"])
            assert run["failed"] == 0, label
        assert serving_record["mixed"]["replay_identical"], \
            serving_record["mixed"]["replay_diffs"]
        assert serving_record["mixed"]["failed"] == 0
        assert serving_record["swap"]["replay_identical"], \
            serving_record["swap"]["replay_diffs"]

    def test_concurrent_requests_coalesce(self, serving_record):
        """The best concurrent configuration scores coalesced batches —
        the mechanism behind criterion (b) — at the default scale
        (smoke-scale requests are too cheap to queue up)."""
        assert serving_record["single_thread_qps"] > 0.0
        assert serving_record["best_multi_thread_qps"] > 0.0
        if serving_record["pages_per_name"] >= 100:
            multi = serving_record["runs"][
                serving_record["best_multi_thread_config"]]
            assert multi["engine"]["coalesced_batches"] > 0, multi

    @pytest.mark.bench_gate
    def test_multi_thread_qps_beats_single_thread(self, serving_record):
        """Criterion (b): the concurrent configuration must win on
        sustained QPS at the default scale.  The win is algorithmic
        (coalesced batches amortize per-page preparation), so it needs
        scoring-bound requests: smoke-scale runs record the ratio only."""
        if serving_record["pages_per_name"] >= 100:
            assert (serving_record["best_multi_thread_qps"]
                    > serving_record["single_thread_qps"]), serving_record

    def test_hot_swap_loses_no_requests(self, serving_record):
        """Criterion (c): a swap under live traffic completes every
        request, serves both generations, and stalls admissions for
        well under a millisecond."""
        swap = serving_record["swap"]
        assert swap["failed"] == 0
        assert swap["swaps"] == 1
        assert swap["final_version"] == 2
        assert swap["replay_versions"] == [1, 2]
        assert swap["replay_identical"], swap["replay_diffs"]
        assert 0.0 <= swap["swap_stall_seconds"] < 0.1

    def test_latency_percentiles_are_ordered(self, serving_record):
        for label, run in serving_record["runs"].items():
            assert (0.0 < run["p50_request_seconds"]
                    <= run["p95_request_seconds"]
                    <= run["p99_request_seconds"]), label

    def test_trajectory_file_records_serving_scenario(self, serving_record):
        payload = json.loads(BENCH_PATH.read_text())
        assert payload["benchmark"] == "runtime"
        serving = [run for run in payload["runs"]
                   if run.get("scenario") == "serving"]
        assert serving, "no serving scenario recorded"
        last = serving[-1]
        for key in ("single_thread_qps", "best_multi_thread_qps",
                    "multi_over_single_qps_ratio", "runs", "swap"):
            assert key in last, key
        for run in last["runs"].values():
            for key in ("qps", "p50_request_seconds", "p95_request_seconds",
                        "p99_request_seconds", "replay_identical"):
                assert key in run, key
            assert "coalesced_batches" in run["engine"]
        assert last["pages_per_name"] == serving_record["pages_per_name"]
