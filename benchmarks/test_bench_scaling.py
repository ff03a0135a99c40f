"""SCALING — corpus-size sweep over the streaming generator + resolution.

Every other benchmark runs on the 12-name paper fixture; this one sweeps
corpus size (~1k pages by default, 100k+ one environment variable away)
over synthesized scale corpora (``repro.corpus.datasets.scale_generator``:
independent per-name seeding, surname collisions, Zipfian lexicon) and
records, per size:

* **throughput-vs-N** — pages/second through the full streaming
  pipeline: regenerate block (O(1), ``generate_block``) → extract →
  quadratic similarity graphs → fit → evaluate, one block at a time;
* **per-stage seconds** — where that time goes as N grows;
* **peak-memory-vs-N** — tracemalloc peaks for streaming generation
  (asserted *bounded*: independent of total corpus size) and for the
  streaming resolution loop (sampled over the first
  ``REPRO_BENCH_SCALE_MEMORY_BLOCKS`` blocks — peaks are per-block, so
  the sample is exact for constant block size; the cap is recorded, not
  silent);
* **blocking-quality-vs-N** — the query-name blocker's reduction ratio
  computed analytically from block sizes (no pair materialization, so it
  covers the full corpus) plus measured reduction/completeness for the
  query-name and token blockers on a capped flat sample
  (``REPRO_BENCH_SCALE_BLOCKING_PAGES``; the token blocker materializes
  within-group pairs, which is quadratic — the cap is recorded);
* **quality-at-scale** — mean B-cubed F1 across blocks; the sweep raises
  the collision rate with size and the score must not collapse.

Each run appends a record to ``benchmarks/out/BENCH_scaling.json``
(same trajectory convention as ``BENCH_runtime.json``).

Scale knobs::

    REPRO_BENCH_SCALE_SIZES       approx total pages per sweep point
                                  (default "1000,3000,9000")
    REPRO_BENCH_SCALE_PPN         pages per name (default 20)
    REPRO_BENCH_SCALE_COLLISIONS  collision rate per sweep point, zipped
                                  with sizes (default "0.1,0.3,0.5";
                                  the last value repeats if short)
    REPRO_BENCH_SCALE_BLOCKING_PAGES  measured-blocking sample cap
                                  (default 1200)
    REPRO_BENCH_SCALE_MEMORY_BLOCKS   tracemalloc'd resolution blocks
                                  (default 6)

A 100k-page point is ``REPRO_BENCH_SCALE_SIZES=100000`` (expect minutes:
the quadratic in-block step dominates and the knobs trade block count
against block size).
"""

from __future__ import annotations

import json
import os
import time
import tracemalloc
from pathlib import Path

import pytest

from repro.blocking import QueryNameBlocker, TokenBlocker
from repro.core.config import ResolverConfig
from repro.core.model import ResolverModel
from repro.core.resolver import EntityResolver
from repro.corpus.datasets import scale_generator
from repro.extraction.pipeline import ExtractionPipeline
from repro.runtime.batch import batched_similarity_graphs
from repro.similarity.backends import default_backend
from repro.similarity.functions import default_functions

BENCH_PATH = Path(__file__).resolve().parent / "out" / "BENCH_scaling.json"
CORPUS_SEED = 13
TRAINING_SEED = 0


def _int_list(value: str) -> list[int]:
    return [int(item) for item in value.split(",") if item.strip()]


def _float_list(value: str) -> list[float]:
    return [float(item) for item in value.split(",") if item.strip()]


def _sweep_points() -> list[tuple[int, float]]:
    """(approx total pages, collision rate) per sweep point."""
    sizes = _int_list(os.environ.get("REPRO_BENCH_SCALE_SIZES",
                                     "1000,3000,9000"))
    collisions = _float_list(os.environ.get("REPRO_BENCH_SCALE_COLLISIONS",
                                            "0.1,0.3,0.5"))
    if not collisions:
        collisions = [0.0]
    return [(size, collisions[min(index, len(collisions) - 1)])
            for index, size in enumerate(sizes)]


def _pairs_in(n: int) -> int:
    return n * (n - 1) // 2


def _measure_point(size: int, collision_rate: float, pages_per_name: int,
                   blocking_cap: int, memory_blocks: int) -> dict:
    """One sweep point: build, stream-resolve, and meter a scale corpus."""
    n_names = max(3, size // pages_per_name)
    generator, names = scale_generator(
        n_names, seed=CORPUS_SEED, pages_per_name=pages_per_name,
        collision_rate=collision_rate)
    pipeline = ExtractionPipeline.from_vocabulary(
        generator.vocabulary, query_names=names)
    config = ResolverConfig()
    resolver = EntityResolver(config)
    scorer = ResolverModel(config=config, blocks={})
    functions = default_functions()

    # Timed streaming pass: each block is regenerated in O(1) from
    # (seed, name), resolved, scored, and discarded — nothing from a
    # previous block survives, so memory stays flat while N grows.
    stage_seconds = {"generate": 0.0, "extract": 0.0, "graphs": 0.0,
                     "fit": 0.0, "evaluate": 0.0}
    bcubed_scores = []
    n_pages = 0
    pairs_scored = 0
    for name in names:
        started = time.perf_counter()
        block = generator.generate_block(name, CORPUS_SEED)
        stage_seconds["generate"] += time.perf_counter() - started

        started = time.perf_counter()
        features = pipeline.extract_block(block)
        stage_seconds["extract"] += time.perf_counter() - started

        started = time.perf_counter()
        graphs = batched_similarity_graphs(block, features, functions)
        stage_seconds["graphs"] += time.perf_counter() - started

        started = time.perf_counter()
        fitted = resolver.fit_block(block, graphs,
                                    training_seed=TRAINING_SEED)
        stage_seconds["fit"] += time.perf_counter() - started

        started = time.perf_counter()
        resolution = scorer.evaluate_fitted(fitted, block, graphs=graphs)
        stage_seconds["evaluate"] += time.perf_counter() - started

        bcubed_scores.append(resolution.report.bcubed_f1)
        n_pages += len(block.pages)
        pairs_scored += _pairs_in(len(block.pages)) * len(functions)
    total_seconds = sum(stage_seconds.values())
    stage_seconds["total"] = total_seconds

    # Peak memory of streaming *generation* over the full corpus — this
    # is the bounded-memory claim: one block alive at a time, so the
    # peak must not grow with N.
    tracemalloc.start()
    for block in generator.iter_blocks(names, CORPUS_SEED):
        pass
    _, generation_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    # Peak memory of the streaming resolution loop, sampled over the
    # first `memory_blocks` blocks (peaks are per-block; constant block
    # size makes the sample exact — and the cap is recorded below).
    sampled = names[:min(memory_blocks, len(names))]
    tracemalloc.start()
    for name in sampled:
        block = generator.generate_block(name, CORPUS_SEED)
        features = pipeline.extract_block(block)
        graphs = batched_similarity_graphs(block, features, functions)
        fitted = resolver.fit_block(block, graphs,
                                    training_seed=TRAINING_SEED)
        scorer.evaluate_fitted(fitted, block, graphs=graphs)
    _, resolution_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    # Blocking quality.  The query-name blocker's reduction ratio is
    # analytic (uniform block sizes: kept pairs / all pairs), so the
    # full-corpus curve costs nothing; measured blockers run on a capped
    # flat sample because the token blocker materializes within-group
    # pairs (quadratic).
    analytic_reduction = 1.0 - (
        n_names * _pairs_in(pages_per_name) / _pairs_in(n_pages))
    sample_names = names[:max(1, min(len(names),
                                     blocking_cap // pages_per_name))]
    sample_pages = [page for name in sample_names
                    for page in generator.generate_block(name,
                                                         CORPUS_SEED).pages]
    query_name_blocking = QueryNameBlocker().block(sample_pages)
    token_blocking = TokenBlocker().block(sample_pages)

    return {
        "n_names": n_names,
        "n_pages": n_pages,
        "pages_per_name": pages_per_name,
        "collision_rate": collision_rate,
        "stage_seconds": stage_seconds,
        "throughput_pages_per_second": n_pages / total_seconds,
        "pairs_scored": pairs_scored,
        "generation_stream_peak_bytes": generation_peak,
        "resolution_peak_bytes": resolution_peak,
        "resolution_peak_blocks_sampled": len(sampled),
        "bcubed_f1_mean": sum(bcubed_scores) / len(bcubed_scores),
        "bcubed_f1_min": min(bcubed_scores),
        "blocking": {
            "analytic_reduction_ratio": analytic_reduction,
            "measured_pages": len(sample_pages),
            "measured_page_cap": blocking_cap,
            "query_name": {
                "reduction_ratio": query_name_blocking.reduction_ratio(),
                "pair_completeness": query_name_blocking.pair_completeness(),
            },
            "token": {
                "reduction_ratio": token_blocking.reduction_ratio(),
                "pair_completeness": token_blocking.pair_completeness(),
            },
        },
    }


@pytest.fixture(scope="module")
def scaling_record():
    """Run the sweep once; every test asserts on the record."""
    pages_per_name = int(os.environ.get("REPRO_BENCH_SCALE_PPN", "20"))
    blocking_cap = int(os.environ.get("REPRO_BENCH_SCALE_BLOCKING_PAGES",
                                      "1200"))
    memory_blocks = int(os.environ.get("REPRO_BENCH_SCALE_MEMORY_BLOCKS",
                                       "6"))
    record = {
        "pages_per_name": pages_per_name,
        "corpus_seed": CORPUS_SEED,
        "training_seed": TRAINING_SEED,
        "backend": default_backend(),
        "sizes": [
            _measure_point(size, collision_rate, pages_per_name,
                           blocking_cap, memory_blocks)
            for size, collision_rate in _sweep_points()
        ],
    }
    _append_trajectory(record)
    return record


def _append_trajectory(record: dict) -> None:
    payload = {"benchmark": "scaling", "runs": []}
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


class TestScalingBench:
    def test_sweep_covers_three_sizes(self, scaling_record):
        """The default sweep records ≥ 3 strictly growing corpus sizes."""
        sizes = scaling_record["sizes"]
        assert len(sizes) >= 3
        page_counts = [entry["n_pages"] for entry in sizes]
        assert page_counts == sorted(page_counts)
        assert len(set(page_counts)) == len(page_counts)

    def test_throughput_and_stages_recorded(self, scaling_record):
        for entry in scaling_record["sizes"]:
            assert entry["throughput_pages_per_second"] > 0.0
            for stage in ("generate", "extract", "graphs", "fit",
                          "evaluate", "total"):
                assert entry["stage_seconds"][stage] > 0.0, stage
            assert entry["pairs_scored"] > 0

    def test_streaming_generation_memory_is_bounded(self, scaling_record):
        """The tentpole claim: streaming generation's peak memory is
        O(one block) — independent of total corpus size.  Allow 2.5x
        slack for allocator noise; an O(N) regression would blow far
        past it (the largest sweep point is ≥ 9x the smallest)."""
        peaks = [entry["generation_stream_peak_bytes"]
                 for entry in scaling_record["sizes"]]
        assert max(peaks) <= 2.5 * min(peaks), peaks
        resolution_peaks = [entry["resolution_peak_bytes"]
                            for entry in scaling_record["sizes"]]
        assert max(resolution_peaks) <= 2.5 * min(resolution_peaks), \
            resolution_peaks

    def test_blocking_quality_curves(self, scaling_record):
        """Query-name blocking stays lossless at every size; its analytic
        reduction ratio grows with N (in-block pairs shrink as a fraction
        of all pairs); the token blocker's measured trade-off is sane."""
        reductions = []
        for entry in scaling_record["sizes"]:
            blocking = entry["blocking"]
            assert blocking["query_name"]["pair_completeness"] == 1.0
            assert blocking["measured_pages"] > 0
            assert 0.0 <= blocking["token"]["reduction_ratio"] <= 1.0
            assert 0.0 <= blocking["token"]["pair_completeness"] <= 1.0
            reductions.append(blocking["analytic_reduction_ratio"])
        assert reductions == sorted(reductions)
        assert all(0.0 <= ratio < 1.0 for ratio in reductions)

    def test_quality_does_not_collapse_at_scale(self, scaling_record):
        """B-cubed F1 must hold up as corpus size and collision rate rise
        together.  The floor is gated on block size the way the runtime
        bench gates its speed floors: tiny smoke blocks (CI's capped
        sweep) give the clusterer little to work with."""
        means = [entry["bcubed_f1_mean"]
                 for entry in scaling_record["sizes"]]
        assert all(score > 0.0 for score in means)
        assert min(means) >= 0.55 * max(means), means
        if scaling_record["pages_per_name"] >= 16:
            assert min(means) >= 0.5, means

    def test_trajectory_file_is_valid(self, scaling_record):
        payload = json.loads(BENCH_PATH.read_text())
        assert payload["benchmark"] == "scaling"
        assert payload["runs"], "no runs recorded"
        last = payload["runs"][-1]
        assert last["pages_per_name"] == scaling_record["pages_per_name"]
        assert len(last["sizes"]) == len(scaling_record["sizes"])
        for entry in last["sizes"]:
            for key in ("n_pages", "throughput_pages_per_second",
                        "stage_seconds", "generation_stream_peak_bytes",
                        "resolution_peak_bytes", "bcubed_f1_mean",
                        "blocking"):
                assert key in entry, key
