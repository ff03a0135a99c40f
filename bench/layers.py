"""The ``--trace 1`` run: traced repetitions plus per-layer probes.

Spans are recorded here, in the harness, around each public call into a
layer (layer = ``repro`` sub-package); nothing inside the program is
instrumented.  Every probe runs inside calibrated slices, so a span
carries the ``factor`` of its slice and per-layer seconds are on the same
clock as the gated metrics.  A layer metric is 0 on a workload that does
not exercise the layer (``serving.*`` on batch, ``runtime.*`` outside
``batch_deep``).

The batch replay follows ``benchmarks/test_bench_scaling.py``: block by
block through extraction -> similarity graphs -> fit_block ->
predict_fitted -> scoring.  The serving workloads replay a sample of
their blocks the same way, so every workload reports what its layers
cost per page and per pair.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

from clock import (Tracer, median, percentile, self_time_by_name,
                   total_by_name)
from repro.blocking import QueryNameBlocker
from repro.core.incremental import IncrementalResolver
from repro.core.model import ResolverModel
from repro.core.resolver import EntityResolver
from repro.corpus.documents import DocumentCollection
from repro.corpus.loaders import load_collection
from repro.metrics.clusterings import clustering_from_assignments
from repro.metrics.report import evaluate_clustering
from repro.pipeline.session import ResolutionSession
from repro.runtime.batch import batched_similarity_graphs
from repro.runtime.executor import ProcessPoolBlockExecutor
from repro.runtime.shards import ShardStore, load_shard
from repro.serving.replay import verify_serial_equivalence
from workloads import (BACKEND, TRAINING_SEED, BatchWorkload, ServeStream,
                       ServeWorkload, collection_digest)

REPLAY_LAYERS = ("extraction.extract", "similarity.graphs", "core.fit_block",
                 "core.predict_block", "metrics.score")
#: Blocks a serving workload replays through the batch layers.
SERVE_REPLAY_BLOCKS = {"serve_stream": 8, "serve_burst": 1}
PYTHON_BACKEND_BLOCKS = 3
RUNTIME_REPS = 3
THREADS2_REPS = 2


def trace_run(workload, clock, tracer, pairs: int, names):
    """Alternate untraced and traced repetitions, then probe the layers.

    ``names`` are BENCHMARK.json's per-layer metrics: each starts at 0
    and stays there when this workload does not exercise its layer.
    Returns ``(reps, layer_metrics, failed, attempted)``; the last two
    count the trace-only correctness checks.
    """
    off = Tracer(enabled=False)
    workload.rep(clock, off)
    untraced, traced = [], []
    failed = attempted = 0
    for index in range(pairs):
        untraced.append(workload.rep(clock, off))
        del untraced[-1]["handle"]
        tracer.attrs = {"workload": workload.name, "rep": index}
        rep = workload.rep(clock, tracer)
        traced.append(rep)
        handle = rep.pop("handle")  # only the last one is kept, for probes
        if isinstance(workload, ServeWorkload):
            attempted += 1
            failed += not verify_serial_equivalence(handle)["identical"]
    tracer.attrs = {"workload": workload.name, "rep": "probe"}

    metrics = dict.fromkeys(names, 0.0)
    put(metrics, "trace.overhead_share",
        median(rep["region_s"] for rep in traced)
        / median(rep["region_s"] for rep in untraced) - 1.0)
    probe_layers(workload, clock, tracer, handle, metrics)
    if isinstance(workload, ServeWorkload):
        probe_serving(workload, clock, tracer, traced, handle, metrics)
    if workload.name == "serve_stream":
        probe_threads2(workload, clock, metrics)
    if workload.name == "batch_deep":
        attempted += 1
        failed += probe_runtime(workload, clock, metrics)
    return untraced + traced, metrics, failed, attempted


def put(metrics, name: str, value: float) -> None:
    if name not in metrics:
        raise KeyError(f"{name} is not a per_layer metric of BENCHMARK.json")
    metrics[name] = float(value)


# -- probes every workload runs ----------------------------------------------

def probe_layers(workload, clock, tracer, handle, metrics) -> None:
    span = tracer.span
    first_span = len(tracer.spans)
    clock.detach()

    def load():
        with span("corpus.load"):
            return load_collection(workload.corpus_path)

    collection, _, _ = clock.measure(load)
    put(metrics, "corpus.pages", collection.n_pages())

    def block_pages():
        pages = list(collection.all_pages())
        with span("blocking.block"):
            return QueryNameBlocker().block(pages)

    blocking, _, _ = clock.measure(block_pages)
    put(metrics, "blocking.blocks", len(collection.collections))
    put(metrics, "blocking.reduction_ratio", blocking.reduction_ratio())

    resolver = EntityResolver(workload.config)

    def build_pipeline():
        with span("extraction.pipeline_build"):
            return resolver.pipeline_for(collection)

    pipeline, _, _ = clock.measure(build_pipeline)

    blocks = collection.collections[:SERVE_REPLAY_BLOCKS.get(
        workload.name, len(collection.collections))]
    functions = resolver.functions
    scorer = ResolverModel(config=workload.config, blocks={})
    hot = blocks[0]
    hot_state = {}

    def replay(block):
        with span("replay.block"):
            with span("extraction.extract"):
                features = pipeline.extract_block(block)
            with span("similarity.graphs"):
                graphs = batched_similarity_graphs(block, features, functions,
                                                   backend=BACKEND)
            with span("core.fit_block"):
                fitted = resolver.fit_block(block, graphs,
                                            training_seed=TRAINING_SEED)
            # the gated pass releases the fit caches before it evaluates,
            # so prediction starts from raw pages again
            with span("extraction.extract"):
                features = pipeline.extract_block(block)
            with span("similarity.graphs"):
                graphs = batched_similarity_graphs(block, features, functions,
                                                   backend=BACKEND)
            with span("core.predict_block"):
                prediction = scorer.predict_fitted(fitted, block,
                                                   graphs=graphs)
            with span("metrics.score"):
                truth = clustering_from_assignments(block.ground_truth())
                evaluate_clustering(prediction.predicted, truth)
        if block is hot:
            hot_state.update(features=features, fitted=fitted)

    clock.sliced(blocks, replay)

    # Nothing of a block outlives its replay (as in the gated pass), so
    # the later probes extract again, outside their spans.
    def one_by_one(block):
        features = pipeline.extract_block(block)
        for function in functions:
            with span(f"similarity.{function.name}"):
                batched_similarity_graphs(block, features, [function],
                                          backend=BACKEND)

    clock.sliced(blocks, one_by_one)

    def backend_pair(block):
        features = pipeline.extract_block(block)
        with span("similarity.python_graphs"):
            batched_similarity_graphs(block, features, functions,
                                      backend="python")
        with span("similarity.numpy_graphs"):
            batched_similarity_graphs(block, features, functions,
                                      backend=BACKEND)

    clock.sliced(blocks[:PYTHON_BACKEND_BLOCKS], backend_pair)

    sample = DocumentCollection(collection.name, blocks, collection.metadata)

    def fit_pass():
        with span("pipeline.fit_pass"):
            model = resolver.fit(sample, training_seed=TRAINING_SEED,
                                 pipeline=pipeline)
            model.release_fit_caches()
        return model

    def predict_pass():
        with span("pipeline.predict_pass"):
            return model.evaluate(sample)

    model, _, _ = clock.measure(fit_pass)
    clock.measure(predict_pass)

    # persistence of the workload's own model
    model_path = workload.fixture_dir / "probe-model.json"
    if isinstance(workload, BatchWorkload):
        own_model = handle
    else:
        own_model = ResolverModel.load(workload.model_path)

    def save_load():
        with span("core.model_save"):
            own_model.save(model_path)
        with span("core.model_load"):
            ResolverModel.load(model_path)

    clock.measure(save_load)
    put(metrics, "core.model_bytes", os.path.getsize(model_path))

    def incremental():
        resolver_state = IncrementalResolver.from_fitted(
            workload.config, hot_state["fitted"])
        timer = clock.timer
        samples = []
        for page in hot.pages:
            started = timer()
            resolver_state.add_page(hot_state["features"][page.doc_id])
            samples.append(timer() - started)
        return samples

    samples, _, factor = clock.measure(incremental)
    put(metrics, "core.incremental_assign_us", median(samples) * factor * 1e6)

    spans = tracer.spans[first_span:]
    own = self_time_by_name(spans, calibrated=True)
    total = total_by_name(spans, calibrated=True)
    # the replay extracts and scores every block twice (fit, predict)
    pages = 2 * sum(len(block.pages) for block in blocks)
    pairs = 2 * len(functions) * sum(
        len(block.pages) * (len(block.pages) - 1) // 2 for block in blocks)
    put(metrics, "corpus.load_s", total["corpus.load"])
    put(metrics, "blocking.block_s", total["blocking.block"])
    put(metrics, "extraction.pipeline_build_s",
        total["extraction.pipeline_build"])
    put(metrics, "extraction.extract_s", own["extraction.extract"])
    put(metrics, "extraction.us_per_page",
        own["extraction.extract"] / pages * 1e6)
    put(metrics, "similarity.graphs_s", own["similarity.graphs"])
    put(metrics, "similarity.pairs_scored", pairs)
    put(metrics, "similarity.ns_per_pair",
        own["similarity.graphs"] / pairs * 1e9)
    for function in functions:
        put(metrics, f"similarity.{function.name}_s",
            total[f"similarity.{function.name}"])
    put(metrics, "similarity.python_graphs_s",
        total["similarity.python_graphs"])
    put(metrics, "similarity.backend_speedup",
        total["similarity.python_graphs"] / total["similarity.numpy_graphs"])
    put(metrics, "core.fit_block_s", own["core.fit_block"])
    put(metrics, "core.predict_block_s", own["core.predict_block"])
    put(metrics, "core.model_save_s", total["core.model_save"])
    put(metrics, "core.model_load_s", total["core.model_load"])
    put(metrics, "metrics.score_s", own["metrics.score"])
    put(metrics, "pipeline.fit_pass_s", total["pipeline.fit_pass"])
    put(metrics, "pipeline.predict_pass_s", total["pipeline.predict_pass"])
    layers = sum(own[name] for name in REPLAY_LAYERS)
    put(metrics, "pipeline.overhead_s",
        total["pipeline.fit_pass"] + total["pipeline.predict_pass"] - layers)
    put(metrics, "trace.layer_coverage", layers / total["replay.block"])


# -- serving -----------------------------------------------------------------

def probe_serving(workload, clock, tracer, traced, engine, metrics) -> None:
    spans = [span for span in tracer.spans if span["rep"] != "probe"]
    total = total_by_name(spans, calibrated=True)
    reps = len(traced)
    put(metrics, "serving.engine_build_s",
        total["serving.engine_build"] / reps)
    put(metrics, "serving.bootstrap_s", total["serving.bootstrap"] / reps)
    last = traced[-1]
    counts = last["counts"]
    for name in ("bootstraps", "lru_hit_rate", "coalesced_batches",
                 "mean_coalesced_pages"):
        put(metrics, f"serving.{name}", counts[name])

    # the same requests through a plain session: no engine, no lanes
    requests = workload.session_requests()
    session = ResolutionSession(engine.snapshot.model,
                                pipeline=engine.snapshot.pipeline,
                                max_blocks=workload.sizes["max_blocks"])
    for batch in workload.warm_batches:
        session.resolve(batch, features=workload.features_for(batch))

    def resolve(request):
        pages, features = request
        session.resolve(pages, features=features)

    clock.detach()
    _, raw, factors, _, _ = clock.sliced(requests, resolve)
    session_us = median(r * f for r, f in zip(raw, factors)) * 1e6
    put(metrics, "pipeline.session_resolve_us", session_us)

    if "missed" in counts:
        missed = counts["missed"]
        hits = [ms for ms, miss in zip(last["lat_ms"], missed) if not miss]
        misses = [ms for ms, miss in zip(last["lat_ms"], missed) if miss]
        put(metrics, "serving.hit_p50_us", median(hits) * 1e3)
        put(metrics, "serving.miss_p50_ms", median(misses))
        put(metrics, "serving.engine_overhead_us",
            percentile(last["lat_ms"], 50) * 1e3 - session_us)
    else:
        burst_ms = median(counts["burst_ms"])
        put(metrics, "serving.burst_ms", burst_ms)
        put(metrics, "serving.burst_us_per_page",
            burst_ms * 1e3 / workload.sizes["burst"])


def probe_threads2(workload: ServeStream, clock, metrics) -> None:
    """The stream from two client threads — reported, never gated: on the
    2-core builder host it moved 13-20 % between identical runs."""
    off = Tracer(enabled=False)
    rates, p50s = [], []
    for _ in range(THREADS2_REPS):
        engine = workload.build_engine(off)
        workload.warm(engine)
        timer = clock.timer

        def client(pages):
            latencies = []
            for page in pages:
                started = timer()
                engine.resolve([page])
                latencies.append(timer() - started)
            return latencies

        def stream():
            with ThreadPoolExecutor(max_workers=2) as pool:
                halves = list(pool.map(client, (workload.schedule[0::2],
                                                workload.schedule[1::2])))
            return halves[0] + halves[1]

        clock.detach()
        latencies, raw_s, factor = clock.measure(stream)
        rates.append(len(latencies) / (raw_s * factor))
        p50s.append(median(latencies) * factor * 1e3)
    put(metrics, "serving.threads2_pages_per_s", median(rates))
    put(metrics, "serving.threads2_p50_ms", median(p50s))


# -- parallel runtime (batch_deep only) --------------------------------------

def _noop(payload):
    return payload


def probe_runtime(workload, clock, metrics) -> int:
    """``workers=2`` next to the serial pass — reported, never gated.

    Returns 1 when the two-worker partition differs from the serial one.
    """
    collection = load_collection(workload.corpus_path)
    serial = EntityResolver(workload.config)
    parallel = EntityResolver(replace(workload.config, executor="process",
                                      workers=2))
    pipeline = serial.pipeline_for(collection)
    serial_s, fit_s, predict_s, digests = [], [], [], set()
    stats = []

    def pass_with(resolver):
        def fit():
            model = resolver.fit(collection, training_seed=TRAINING_SEED,
                                 pipeline=pipeline)
            model.release_fit_caches()
            return model
        model, fit_raw, fit_f = clock.measure(fit)
        resolution, eval_raw, eval_f = clock.measure(
            lambda: model.evaluate(collection))
        digests.add(collection_digest(resolution.blocks))
        return fit_raw * fit_f, eval_raw * eval_f, model, resolution

    clock.detach()
    for _ in range(RUNTIME_REPS):
        fit, predict, _, _ = pass_with(serial)
        serial_s.append(fit + predict)
        fit, predict, model, resolution = pass_with(parallel)
        fit_s.append(fit)
        predict_s.append(predict)
        stats = [model.fit_stats, resolution.stats]
    put(metrics, "runtime.workers2_fit_pass_s", median(fit_s))
    put(metrics, "runtime.workers2_predict_pass_s", median(predict_s))
    put(metrics, "runtime.parallel_speedup",
        median(serial_s) / median(f + p for f, p in zip(fit_s, predict_s)))
    put(metrics, "runtime.effective_workers",
        max(stat.effective_workers for stat in stats))
    for name in ("fork_waves", "shard_bytes_published",
                 "plane_fallback_payloads"):
        put(metrics, f"runtime.{name}",
            sum(getattr(stat, name) for stat in stats))

    def pool_start():
        with ProcessPoolBlockExecutor(workers=2) as executor:
            executor.run(_noop, [0, 1])

    _, raw_s, factor = clock.measure(pool_start)
    put(metrics, "runtime.pool_start_s", raw_s * factor)

    block = collection.collections[0]
    payload = (block, pipeline.extract_block(block))
    with ShardStore() as store:
        handle, raw_s, factor = clock.measure(lambda: store.publish(payload))
        put(metrics, "runtime.shard_publish_s", raw_s * factor)
        # in the publishing process this resolves through the local
        # registry, the path a worker forked after publish takes
        _, raw_s, factor = clock.measure(lambda: load_shard(handle))
        put(metrics, "runtime.shard_attach_s", raw_s * factor)
    return int(len(digests) != 1)
