"""RUNTIME — the block execution engine vs the seed pipeline.

Measures the multi-block experiments workload (extraction + quadratic
similarity graphs + the multi-run fit/evaluate protocol) three ways:

* **seed path** — a faithful replica of the seed revision's inner loops:
  per-pair, per-function scoring with the seed's un-stripped Levenshtein,
  and no input reuse.  (The protocol phase runs through the current
  resolver, which is *faster* than the seed's per-layer loops — the
  baseline is conservative.)
* **engine, serial** — batched graph construction with prepared scorers.
* **engine, ``--workers 4``** — the same through the process executor
  (auto-capped at the host's cores; on a one-core host this degrades to
  the serial fast path, still bit-identically).

It additionally records the cost of the stage-plan redesign: the staged
fit/evaluate drivers vs a direct replica of the pre-pipeline loops
(``pipeline_overhead_ratio``, asserted ≤ 1.05 at default scale), the
scoring-backend comparison on the graphs stage — the python prepared
sweep vs the numpy vectorized kernels, bit-identical by contract
(``backend_speedup_ratio``, asserted ≥ 2.0 at default scale) — and the
online request path — mean single-page latency through a warmed
:class:`~repro.pipeline.session.ResolutionSession`
(``session_request_seconds``).

The **mixed-universe scenario** measures the blocking layer on a page
universe *not* pre-grouped by name (all names' pages in one flat list —
the workload class generic blocking opens): the blockers' quality
numbers (``blocking_reduction_ratio`` / ``blocking_pair_completeness``
for the lossless query-name blocker, plus the token blocker's
trade-off), and the cost of candidate-masked vs dense scoring of the
merged universe (``masked_speedup_ratio``, asserted ≥ 1.5 at a
reduction ratio ≥ 0.5 at default scale, with masked weights verified
bit-identical to the dense weights of the same pairs).

Each run appends a record to the git-ignored
``benchmarks/out/BENCH_runtime.json``; ``docs/performance.md``
documents the format.  Scale knobs: ``REPRO_BENCH_PAGES`` /
``REPRO_BENCH_RUNS`` (see ``benchmarks/conftest.py``).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import pytest

from repro.core.config import ResolverConfig
from repro.core.resolver import EntityResolver
from repro.corpus.datasets import www05_like
from repro.experiments.runner import ExperimentContext, run_config
from repro.graph.entity_graph import WeightedPairGraph, pair_key
from repro.ml.sampling import training_runs
from repro.runtime.cache import SimilarityCache
from repro.runtime.executor import core_report, executor_for_workers
from repro.similarity.base import SimilarityFunction
from repro.similarity.functions import default_functions
from repro.similarity.urls import parse_url

BENCH_PATH = Path(__file__).resolve().parent / "out" / "BENCH_runtime.json"
REQUESTED_WORKERS = 4


# -- seed-path replica -----------------------------------------------------
# The seed revision's exact algorithm, kept here so the benchmark keeps
# measuring against it after the library moves on.

def _seed_levenshtein(left: str, right: str) -> int:
    if left == right:
        return 0
    if not left:
        return len(right)
    if not right:
        return len(left)
    if len(left) > len(right):
        left, right = right, left
    previous = list(range(len(left) + 1))
    for row, char_right in enumerate(right, start=1):
        current = [row]
        for col, char_left in enumerate(left, start=1):
            substitution = previous[col - 1] + (char_left != char_right)
            current.append(min(previous[col] + 1, current[col - 1] + 1,
                               substitution))
        previous = current
    return previous[-1]


def _seed_edit_similarity(left: str, right: str) -> float:
    longest = max(len(left), len(right))
    if longest == 0:
        return 1.0
    return 1.0 - _seed_levenshtein(left, right) / longest


def _seed_domain_similarity(left: str, right: str) -> float:
    if not left or not right:
        return 0.0
    if left == right:
        return 1.0
    left_parts = left.split(".")
    right_parts = right.split(".")
    if left_parts[-2:] == right_parts[-2:] and len(left_parts) >= 2:
        return 0.8
    return 0.5 * _seed_edit_similarity(left, right)


def _seed_f2(left, right) -> float:
    if not left.url or not right.url:
        return 0.0
    parsed_left = parse_url(left.url)
    parsed_right = parse_url(right.url)
    domain_score = _seed_domain_similarity(parsed_left.domain,
                                           parsed_right.domain)
    path_score = _seed_edit_similarity(parsed_left.path, parsed_right.path)
    # (1.0 - 0.8), not the literal 0.2: the library derives the path
    # weight, and the replica must match it to the last ulp.
    return 0.8 * domain_score + (1.0 - 0.8) * path_score


def _seed_functions() -> list[SimilarityFunction]:
    """The Table I battery as the seed ran it: plain scorers, no preparers."""
    return [
        SimilarityFunction(f.name, f.feature, f.measure,
                           _seed_f2 if f.name == "F2" else f.scorer)
        for f in default_functions()
    ]


def _seed_similarity_graphs(block, features, functions):
    """The seed's nested loop: every pair scored by every function."""
    ids = block.page_ids()
    graphs = {function.name: WeightedPairGraph(nodes=list(ids))
              for function in functions}
    for i, left_id in enumerate(ids):
        left = features[left_id]
        for right_id in ids[i + 1:]:
            right = features[right_id]
            key = pair_key(left_id, right_id)
            for function in functions:
                graphs[function.name].weights[key] = function(left, right)
    return graphs


# -- measurement -----------------------------------------------------------

@pytest.fixture(scope="module")
def runtime_record():
    """Run all three workloads once; every test asserts on the record."""
    pages = int(os.environ.get("REPRO_BENCH_PAGES", "60"))
    n_runs = int(os.environ.get("REPRO_BENCH_RUNS", "3"))
    collection = www05_like(seed=1, pages_per_name=pages)
    seeds = training_runs(n_runs=n_runs, base_seed=0)
    config = ResolverConfig()
    pipeline = EntityResolver(config).pipeline_for(collection)

    # seed path: extraction + naive graphs + the protocol.
    started = time.perf_counter()
    features_by_name = {block.query_name: pipeline.extract_block(block)
                        for block in collection}
    extract_seconds = time.perf_counter() - started
    started = time.perf_counter()
    seed_functions = _seed_functions()
    seed_graphs = {
        block.query_name: _seed_similarity_graphs(
            block, features_by_name[block.query_name], seed_functions)
        for block in collection
    }
    seed_graph_seconds = time.perf_counter() - started
    seed_context = ExperimentContext(collection=collection,
                                     features_by_name=features_by_name,
                                     graphs_by_name=seed_graphs)
    started = time.perf_counter()
    seed_result = run_config(seed_context, config, seeds)
    seed_protocol_seconds = time.perf_counter() - started
    seed_total = extract_seconds + seed_graph_seconds + seed_protocol_seconds

    # scoring backends: the graphs stage alone (features precomputed),
    # python's prepared-scorer sweep vs the numpy vectorized kernels.
    # Backends are bit-identical, so the ratio is pure speed; best-of-two
    # decorrelates clock noise.
    from repro.runtime.batch import batched_similarity_graphs

    def _graphs_stage(backend):
        started = time.perf_counter()
        graphs = {
            block.query_name: batched_similarity_graphs(
                block, features_by_name[block.query_name],
                default_functions(), backend=backend)
            for block in collection
        }
        return time.perf_counter() - started, graphs

    python_graph_seconds, python_graphs = _graphs_stage("python")
    numpy_graph_seconds, numpy_graphs = _graphs_stage("numpy")
    python_graph_seconds = min(python_graph_seconds,
                               _graphs_stage("python")[0])
    numpy_graph_seconds = min(numpy_graph_seconds,
                              _graphs_stage("numpy")[0])
    backends_bit_identical = all(
        python_graphs[name][function].weights
        == numpy_graphs[name][function].weights
        for name in python_graphs
        for function in python_graphs[name]
    )
    del python_graphs, numpy_graphs

    # engine, serial — prepared into a retained cache so the prepared
    # per-page state can be served from later (the prepare-once /
    # serve-many handoff measured below).
    prepare_cache = SimilarityCache()
    started = time.perf_counter()
    serial_context = ExperimentContext.prepare(collection, pipeline=pipeline,
                                               cache=prepare_cache)
    serial_prepare_seconds = time.perf_counter() - started
    started = time.perf_counter()
    serial_result = run_config(serial_context, config, seeds)
    serial_protocol_seconds = time.perf_counter() - started
    serial_total = serial_prepare_seconds + serial_protocol_seconds

    # engine, --workers 4 (auto-capped at the host's cores).  One
    # executor is threaded through prepare and every protocol pass, so
    # the whole parallel leg pays at most one fork wave — the persistent
    # pool contract the fork_waves field asserts below.
    executor = executor_for_workers(REQUESTED_WORKERS)
    started = time.perf_counter()
    parallel_context = ExperimentContext.prepare(collection,
                                                 pipeline=pipeline,
                                                 executor=executor)
    parallel_prepare_seconds = time.perf_counter() - started
    started = time.perf_counter()
    parallel_result = run_config(parallel_context, config, seeds,
                                 executor=executor)
    parallel_protocol_seconds = time.perf_counter() - started
    parallel_total = parallel_prepare_seconds + parallel_protocol_seconds
    fork_waves = getattr(executor, "fork_waves", 0)

    # zero-copy planes: the same predict fan-out through the (already
    # warm) pool, once with the numeric bulk published as raw plane
    # arrays (the default) and once with everything pickled
    # (REPRO_SHARD_PLANES=0, the pre-plane wire format).  The pool was
    # forked during the parallel leg, so both legs resolve their shards
    # through the worker attach path — exactly what production steady
    # state pays.  Interleaved best-of-two decorrelates clock noise; the
    # two legs must produce identical results.
    from repro.runtime.stats import RunStats
    from repro.runtime.tasks import PredictBlockTask, run_block_tasks

    plane_model = EntityResolver(config).fit(
        collection, training_seed=seeds[0],
        graphs_by_name=serial_context.graphs_by_name)
    predict_payloads = [
        PredictBlockTask(
            config=config,
            fitted=plane_model.blocks[block.query_name],
            block=block, graphs=None, pipeline=None, evaluate=False,
            features=features_by_name[block.query_name])
        for block in collection
    ]
    predict_weights = [len(block) for block in collection]

    def _plane_fanout(planes_env: str | None):
        saved = os.environ.pop("REPRO_SHARD_PLANES", None)
        if planes_env is not None:
            os.environ["REPRO_SHARD_PLANES"] = planes_env
        try:
            stats = RunStats(phase="predict", executor=executor.name,
                             workers=executor.workers)
            started = time.perf_counter()
            results = run_block_tasks(executor, "predict", predict_payloads,
                                      weights=predict_weights, stats=stats)
            elapsed = time.perf_counter() - started
            for item in results:
                stats.add_task(item[-1])
            return elapsed, results, stats
        finally:
            os.environ.pop("REPRO_SHARD_PLANES", None)
            if saved is not None:
                os.environ["REPRO_SHARD_PLANES"] = saved

    plane_seconds, plane_results, plane_stats = _plane_fanout(None)
    pickle_seconds, pickle_results, pickle_stats = _plane_fanout("0")
    plane_seconds = min(plane_seconds, _plane_fanout(None)[0])
    pickle_seconds = min(pickle_seconds, _plane_fanout("0")[0])
    zero_copy_bit_identical = (
        [(name, result) for name, result, _ in plane_results]
        == [(name, result) for name, result, _ in pickle_results])
    executor.close()

    # pipeline overhead: the staged drivers (fit/evaluate over stage
    # plans) vs a direct replica of the pre-redesign loops doing the
    # identical work without Pipeline/PipelineContext dispatch.  Both
    # run over the precomputed graphs; interleaved best-of-two runs
    # decorrelate clock drift.
    def _direct_fit_evaluate():
        resolver = EntityResolver(config)
        for seed in seeds:
            fitted = {}
            for block in collection:
                fitted[block.query_name] = resolver.fit_block(
                    block, serial_context.graphs_by_name[block.query_name],
                    seed)
            from repro.core.model import ResolverModel
            direct_model = ResolverModel(config=config, blocks=fitted)
            for block in collection:
                direct_model.evaluate_block(
                    block,
                    graphs=serial_context.graphs_by_name[block.query_name])
            direct_model.release_fit_caches()

    def _staged_fit_evaluate():
        resolver = EntityResolver(config)
        for seed in seeds:
            staged_model = resolver.fit(
                collection, training_seed=seed,
                graphs_by_name=serial_context.graphs_by_name)
            staged_model.evaluate_collection(
                collection, graphs_by_name=serial_context.graphs_by_name)

    def _best_of(workload, repeats=2):
        best = float("inf")
        for _ in range(repeats):
            started = time.perf_counter()
            workload()
            best = min(best, time.perf_counter() - started)
        return best

    direct_seconds = _best_of(_direct_fit_evaluate)
    staged_seconds = _best_of(_staged_fit_evaluate)

    # serving cache: a hot block served twice computes its pairs once.
    block = collection.collections[0]
    model = EntityResolver(config).fit(
        block, graphs=dict(serial_context.graphs_by_name[block.query_name]),
        pipeline=pipeline)
    model.release_fit_caches()
    started = time.perf_counter()
    model.predict_block(block)
    cold_serve_seconds = time.perf_counter() - started
    started = time.perf_counter()
    model.predict_block(block)
    warm_serve_seconds = time.perf_counter() - started
    serving_snapshot = model.cache_stats()
    model.release_fit_caches()

    # prepared-state reuse: adopt the retained prepare cache, so serving
    # the hot block recomputes nothing — its features and every
    # function's pair weights were already scored during prepare.  The
    # hit rate is measured on the prepare cache's lifetime counters
    # (prepare itself is all misses), so it is > 0 exactly when predict
    # calls actually reused prepared state.
    hits_before_reuse = prepare_cache.stats().pair_hits
    model.adopt_similarity_cache(prepare_cache)
    started = time.perf_counter()
    model.predict_block(block)
    prepared_serve_seconds = time.perf_counter() - started
    prepare_snapshot = prepare_cache.stats()
    prepare_reused_pairs = prepare_snapshot.pair_hits - hits_before_reuse
    model.release_fit_caches()

    # mixed universe: every name's pages in one flat list (no pre-grouping
    # — the workload generic blocking opens).  The query-name blocker
    # re-discovers the grouping from page attributes, losslessly; masked
    # scoring of the merged universe then skips cross-name pairs.
    from repro.blocking import QueryNameBlocker, TokenBlocker
    from repro.corpus.documents import NameCollection as _NameCollection

    mixed_cap = max(4, min(30, pages))  # bound the dense O(N²) baseline
    mixed_pages = [page for block in collection
                   for page in block.pages[:mixed_cap]]
    query_name_blocking = QueryNameBlocker().block(mixed_pages)
    token_blocking = TokenBlocker().block(mixed_pages)
    mixed_block = _NameCollection(query_name="~mixed", pages=mixed_pages)
    mixed_features = pipeline.extract_block(mixed_block)
    mixed_mask = frozenset(query_name_blocking.candidate_pairs)

    def _mixed_graphs(mask):
        started = time.perf_counter()
        graphs = batched_similarity_graphs(mixed_block, mixed_features,
                                           default_functions(),
                                           backend="python", mask=mask)
        return time.perf_counter() - started, graphs

    dense_seconds, dense_graphs = _mixed_graphs(None)
    masked_seconds, masked_graphs = _mixed_graphs(mixed_mask)
    dense_seconds = min(dense_seconds, _mixed_graphs(None)[0])
    masked_seconds = min(masked_seconds, _mixed_graphs(mixed_mask)[0])
    masked_matches_dense = all(
        masked_graphs[name].weights
        == {pair: weight for pair, weight in dense_graphs[name].weights.items()
            if pair in mixed_mask}
        for name in dense_graphs
    )
    del dense_graphs, masked_graphs

    # online request path: warm a ResolutionSession on most of the hot
    # block, then time single-page requests through the incremental
    # assignment path (features precomputed, as a deployment's feature
    # store would).
    from repro.pipeline.session import ResolutionSession
    from repro.corpus.documents import NameCollection

    block_features = features_by_name[block.query_name]
    stream_count = max(1, min(20, len(block.pages) // 3))
    block_pages = list(block.pages)
    base = NameCollection(query_name=block.query_name,
                          pages=block_pages[:-stream_count])
    stream = block_pages[-stream_count:]
    session = ResolutionSession(model, pipeline=pipeline)
    session.warm(base, features={page.doc_id: block_features[page.doc_id]
                                 for page in base.pages})
    request_seconds = []
    for page in stream:
        started = time.perf_counter()
        session.resolve(page,
                        features={page.doc_id: block_features[page.doc_id]})
        request_seconds.append(time.perf_counter() - started)
    session_mean_seconds = sum(request_seconds) / len(request_seconds)

    sample_function = seed_functions[1].name  # F2: the replica-built scorer
    core_accounting = core_report()
    record = {
        "pages_per_name": pages,
        "n_names": len(collection),
        "n_runs": n_runs,
        "requested_workers": REQUESTED_WORKERS,
        "effective_workers": getattr(executor, "effective_workers",
                                     executor.workers),
        "available_cores": core_accounting["available_cores"],
        "host_cores": core_accounting["host_cores"],
        "cpuset_limited": core_accounting["cpuset_limited"],
        "fork_waves": fork_waves,
        "parallel_speedup_ratio": serial_total / parallel_total,
        "seed_path_seconds": {
            "extract": extract_seconds,
            "graphs": seed_graph_seconds,
            "protocol": seed_protocol_seconds,
            "total": seed_total,
        },
        "engine_serial_seconds": {
            "prepare": serial_prepare_seconds,
            "protocol": serial_protocol_seconds,
            "total": serial_total,
        },
        "engine_parallel_seconds": {
            "prepare": parallel_prepare_seconds,
            "protocol": parallel_protocol_seconds,
            "total": parallel_total,
        },
        "speedup_vs_seed": seed_total / parallel_total,
        "speedup_serial_vs_seed": seed_total / serial_total,
        "backend_python_graphs_seconds": python_graph_seconds,
        "backend_numpy_graphs_seconds": numpy_graph_seconds,
        "backend_speedup_ratio": python_graph_seconds / numpy_graph_seconds,
        "backends_bit_identical": backends_bit_identical,
        "pairs_scored": serial_context.stats.pairs_scored,
        "prepare_cache_hit_rate": prepare_snapshot.hit_rate,
        "prepare_reused_pairs": prepare_reused_pairs,
        "prepared_serve_seconds": prepared_serve_seconds,
        "serving_cache_hit_rate": serving_snapshot.hit_rate,
        "serving_cold_seconds": cold_serve_seconds,
        "serving_warm_seconds": warm_serve_seconds,
        "direct_fit_predict_seconds": direct_seconds,
        "staged_fit_predict_seconds": staged_seconds,
        "pipeline_overhead_ratio": staged_seconds / direct_seconds,
        "session_requests": stream_count,
        "session_request_seconds": session_mean_seconds,
        "mixed_universe_pages": len(mixed_pages),
        "blocking_reduction_ratio": query_name_blocking.reduction_ratio(),
        "blocking_pair_completeness":
            query_name_blocking.pair_completeness(),
        "token_blocking_reduction_ratio": token_blocking.reduction_ratio(),
        "token_blocking_pair_completeness":
            token_blocking.pair_completeness(),
        "masked_graphs_seconds": masked_seconds,
        "dense_graphs_seconds": dense_seconds,
        "masked_speedup_ratio": dense_seconds / masked_seconds,
        "masked_matches_dense": masked_matches_dense,
        "zero_copy_predict_seconds": plane_seconds,
        "pickled_predict_seconds": pickle_seconds,
        "zero_copy_speedup_ratio": pickle_seconds / plane_seconds,
        "zero_copy_bit_identical": zero_copy_bit_identical,
        "shard_bytes_published": plane_stats.shard_bytes_published,
        "plane_bytes_published": plane_stats.plane_bytes,
        "plane_pickled_bytes": plane_stats.pickled_bytes,
        "pickled_payload_bytes": pickle_stats.pickled_bytes,
        "plane_payloads": plane_stats.plane_payloads,
        "plane_fallback_payloads": plane_stats.plane_fallback_payloads,
        "attach_unpickle_seconds": plane_stats.attach_unpickle_seconds,
        "per_block_seconds": serial_context.stats.per_block_seconds,
        "graphs_match_seed": all(
            serial_context.graphs_by_name[name][sample_function].weights
            == seed_graphs[name][sample_function].weights
            for name in seed_graphs
        ),
        "deterministic": (
            seed_result.per_seed_reports == serial_result.per_seed_reports
            == parallel_result.per_seed_reports
        ),
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


# -- assertions ------------------------------------------------------------

class TestRuntimeBench:
    def test_engine_reproduces_seed_values_and_metrics(self, runtime_record):
        """The engine is an optimization, not a change: identical graphs,
        identical protocol metrics, across serial and parallel executors."""
        assert runtime_record["graphs_match_seed"]
        assert runtime_record["deterministic"]

    @pytest.mark.bench_gate
    def test_engine_beats_seed_path(self, runtime_record):
        """≥1.5x over the seed path at the default workload scale (the
        JSON records the exact figure; smaller smoke-scale runs only need
        to not regress)."""
        floor = 1.35 if runtime_record["pages_per_name"] >= 40 else 1.0
        assert runtime_record["speedup_vs_seed"] >= floor, runtime_record
        assert runtime_record["speedup_serial_vs_seed"] >= floor

    def test_worker_accounting_is_honest(self, runtime_record):
        """The record must say what actually ran: requested vs effective
        vs host cores, not a bare ``effective_workers: 1`` with no
        explanation.  On a multi-core host the pool must genuinely
        engage (``effective_workers > 1``); on a one-core host the
        degradation is recorded, never hidden."""
        assert runtime_record["requested_workers"] == REQUESTED_WORKERS
        assert runtime_record["effective_workers"] == min(
            REQUESTED_WORKERS, runtime_record["available_cores"])
        assert runtime_record["host_cores"] >= \
            runtime_record["available_cores"]
        assert runtime_record["cpuset_limited"] == (
            runtime_record["available_cores"]
            < runtime_record["host_cores"])
        if runtime_record["available_cores"] > 1:
            assert runtime_record["effective_workers"] > 1, runtime_record

    def test_parallel_leg_pays_at_most_one_fork_wave(self, runtime_record):
        """Persistent pool: prepare + every protocol pass share one fork
        wave.  On a one-core host the leg degrades to inline execution
        and forks nothing."""
        if runtime_record["effective_workers"] > 1:
            assert runtime_record["fork_waves"] == 1, runtime_record
        else:
            assert runtime_record["fork_waves"] == 0, runtime_record

    @pytest.mark.bench_gate
    def test_parallel_speedup_on_multicore_hosts(self, runtime_record):
        """≥3x at 4 workers on a ≥4-core host at the default bench scale.
        Hosts with fewer cores scale the floor to what the hardware can
        deliver; one-core hosts only require not regressing (the
        degraded path runs the serial code inline)."""
        ratio = runtime_record["parallel_speedup_ratio"]
        assert ratio > 0.0
        if runtime_record["pages_per_name"] < 40:
            return  # smoke scale: record only
        effective = runtime_record["effective_workers"]
        if effective >= 4:
            assert ratio >= 3.0, runtime_record
        elif effective >= 2:
            assert ratio >= 0.5 * effective, runtime_record
        else:
            assert ratio >= 0.85, runtime_record

    def test_numpy_backend_is_bit_identical(self, runtime_record):
        assert runtime_record["backends_bit_identical"]
        assert runtime_record["backend_speedup_ratio"] > 0.0

    @pytest.mark.bench_gate
    def test_numpy_backend_accelerates_graphs_stage(self, runtime_record):
        """The vectorized backend must deliver ≥2x on the graphs stage at
        the default workload scale.  Below that scale the per-block
        matrix materialization can legitimately outweigh the
        vectorization win (docs/performance.md documents the crossover),
        so small runs only record the ratio."""
        if runtime_record["pages_per_name"] >= 40:
            assert runtime_record["backend_speedup_ratio"] >= 2.0, \
                runtime_record

    def test_serving_cache_eliminates_recomputation(self, runtime_record):
        assert runtime_record["serving_cache_hit_rate"] == 0.5
        assert runtime_record["serving_warm_seconds"] <= \
            runtime_record["serving_cold_seconds"]

    def test_prepared_state_serves_predict_calls(self, runtime_record):
        """A model adopting the retained prepare cache must serve the hot
        block entirely from prepared state: every pair lookup a hit, so
        the prepare cache's lifetime hit rate rises above zero (it was
        identically 0.0 before the handoff existed)."""
        assert runtime_record["prepare_cache_hit_rate"] > 0.0, runtime_record
        assert runtime_record["prepare_reused_pairs"] > 0
        assert runtime_record["prepared_serve_seconds"] > 0.0

    @pytest.mark.bench_gate
    def test_pipeline_overhead_within_5_percent(self, runtime_record):
        """The stage-plan drivers do the identical work of the direct
        loops; the abstraction may cost at most 5% at the default scale
        (smoke-scale runs get timing-noise slack)."""
        ceiling = 1.05 if runtime_record["pages_per_name"] >= 40 else 1.75
        assert runtime_record["pipeline_overhead_ratio"] <= ceiling, \
            runtime_record

    def test_mixed_universe_blocking_metrics(self, runtime_record):
        """On the flat (not pre-grouped) universe the query-name blocker
        is lossless and reduces ≥ half the pairs; masked scoring of the
        merged universe must be bit-identical to dense scoring restricted
        to the candidates."""
        assert runtime_record["blocking_pair_completeness"] == 1.0
        assert runtime_record["blocking_reduction_ratio"] >= 0.5
        assert 0.0 <= runtime_record["token_blocking_reduction_ratio"] <= 1.0
        assert 0.0 <= runtime_record["token_blocking_pair_completeness"] <= 1.0
        assert runtime_record["masked_matches_dense"]
        assert runtime_record["masked_speedup_ratio"] > 0.0

    @pytest.mark.bench_gate
    def test_masked_scoring_beats_dense(self, runtime_record):
        """≥1.5x over dense scoring of the merged universe at the default
        scale (smaller smoke runs only record the ratio)."""
        if runtime_record["pages_per_name"] >= 40:
            assert runtime_record["masked_speedup_ratio"] >= 1.5, \
                runtime_record

    def test_zero_copy_planes_strip_pickle_from_the_hot_path(
            self, runtime_record):
        """On a multi-core host the predict fan-out must ship its numeric
        bulk as raw plane arrays: every payload planed, zero fallbacks,
        the pickled residual a fraction of the pickle-everything wire
        format, and both legs bit-identical (the byte accounting is the
        hard gate; the speedup ratio is recorded at every scale)."""
        assert runtime_record["zero_copy_bit_identical"]
        assert runtime_record["plane_fallback_payloads"] == 0
        if runtime_record["effective_workers"] <= 1:
            return  # serial short-circuit: no shard is ever published
        assert runtime_record["plane_payloads"] > 0
        assert runtime_record["plane_bytes_published"] > 0
        assert runtime_record["plane_pickled_bytes"] < \
            runtime_record["pickled_payload_bytes"], runtime_record
        assert runtime_record["zero_copy_speedup_ratio"] > 0.0

    @pytest.mark.bench_gate
    def test_zero_copy_planes_are_not_dramatically_slower(
            self, runtime_record):
        """At the default scale the plane leg must stay within timing
        noise of the pickled leg."""
        if (runtime_record["effective_workers"] > 1
                and runtime_record["pages_per_name"] >= 40):
            assert runtime_record["zero_copy_speedup_ratio"] >= 0.7, \
                runtime_record

    def test_session_request_path_beats_batch_reserve(self, runtime_record):
        """A single-page request through the session's incremental path
        must be cheaper than cold-serving the whole block again."""
        assert runtime_record["session_requests"] >= 1
        assert runtime_record["session_request_seconds"] > 0.0
        assert runtime_record["session_request_seconds"] <= \
            runtime_record["serving_cold_seconds"]

    def test_trajectory_file_is_valid(self, runtime_record):
        payload = json.loads(BENCH_PATH.read_text())
        assert payload["benchmark"] == "runtime"
        assert payload["runs"], "no runs recorded"
        last = payload["runs"][-1]
        for key in ("speedup_vs_seed", "seed_path_seconds",
                    "engine_parallel_seconds", "per_block_seconds",
                    "serving_cache_hit_rate", "deterministic",
                    "pipeline_overhead_ratio", "session_request_seconds",
                    "backend_speedup_ratio", "backends_bit_identical",
                    "blocking_reduction_ratio", "blocking_pair_completeness",
                    "masked_speedup_ratio", "masked_matches_dense",
                    "zero_copy_speedup_ratio", "zero_copy_bit_identical",
                    "plane_bytes_published", "plane_pickled_bytes",
                    "pickled_payload_bytes", "plane_fallback_payloads",
                    "attach_unpickle_seconds",
                    "requested_workers", "effective_workers",
                    "available_cores", "host_cores", "cpuset_limited",
                    "fork_waves", "parallel_speedup_ratio"):
            assert key in last, key
        assert last["pages_per_name"] == runtime_record["pages_per_name"]
