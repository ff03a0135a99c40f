"""The four gated workloads: fixture, set-up, timed region, checks.

Each workload drives the stack through public functions only, from one
client thread in one process, on the ``numpy`` backend.  A run is a
fixture built once (corpus on disk, for serving also a fitted model),
then repetitions that each repeat set-up from the on-disk fixture and
the timed region from a fresh state.

Corpus *content* is fixed (``CORPUS_SEED``): clustering quality moves by
0.75-0.91 B-cubed F1 between corpus seeds on a 12-name corpus, which
would bury any bound on ``bcubed_f1`` and shift every timing with the
cluster structure.  ``--seed`` drives how that content is presented —
block order for the batch workloads, the request schedule for the
serving ones — the way a fixed labelled collection is crawled or queried
in a different order each day.
"""

from __future__ import annotations

import gc
import hashlib
import random
from dataclasses import replace
from pathlib import Path

from repro.core.config import ResolverConfig
from repro.core.model import ResolverModel
from repro.core.resolver import EntityResolver
from repro.corpus.datasets import scale_corpus, www05_like
from repro.corpus.documents import DocumentCollection
from repro.corpus.loaders import load_collection, save_collection
from repro.metrics.clusterings import clustering_from_assignments
from repro.metrics.report import evaluate_clustering
from repro.serving.engine import ServingEngine
from schedule import (interleave, multiset_order, windowed_shuffle,
                      zipf_counts)

CORPUS_SEED = 13
TRAINING_SEED = 0
BACKEND = "numpy"

#: Final workload sizes (recorded in every result file).  Chosen so one
#: repetition holds ~1.5-2 s of timed work and a run of ``run_seconds``
#: holds >= 8 repetitions inside the driver's 3420 s cap for 92 runs.
SIZES = {
    "batch_wide": {"names": 36, "pages_per_name": 20,
                   "collision_rate": 0.3},
    "batch_deep": {"names": 8, "pages_per_name": 52},
    "serve_stream": {"names": 32, "pages_per_name": 40, "max_blocks": 16,
                     "warm_names": 16, "warm_pages": 13, "requests": 640,
                     "zipf": 1.1, "jitter_window": 2},
    # (144 - 32) / 8 * 4 = 56 bursts
    "serve_burst": {"names": 4, "pages_per_name": 144, "max_blocks": 16,
                    "warm_pages": 32, "burst": 8},
}

#: ``batch_deep``'s eight WWW'05 names span 2-61 true clusters per 100
#: pages; ``serve_burst``'s four deep names 10-37.
DEEP_NAMES = ["Adam Cheyer", "Dina Hardt", "William Cohen", "David Israel",
              "David Mulford", "Andrew Ng", "Tom Mitchell", "Lynn Voss"]
BURST_NAMES = ["William Cohen", "David Israel", "Andrew Mccallum",
               "Tom Mitchell"]


def partition_digest(parts) -> str:
    """Order-free digest of ``(doc_id, cluster label)`` pairs."""
    digest = hashlib.sha256()
    for item in sorted(parts):
        digest.update(repr(item).encode())
    return digest.hexdigest()[:16]


def collection_digest(blocks) -> str:
    """Digest of a batch result: per name, its clusters as doc-id sets."""
    return partition_digest(
        (block.query_name, tuple(sorted(sorted(cluster)
                                        for cluster in block.predicted)))
        for block in blocks)


def score_assignments(assigned: dict, truth: dict) -> tuple[float, float]:
    """Mean over names of (B-cubed F1, Fp) for served pages.

    ``assigned`` maps doc id -> (query name, cluster index) as returned
    to the client; ``truth`` maps doc id -> (query name, person id).
    """
    by_name: dict[str, tuple[dict, dict]] = {}
    for doc_id, (name, cluster) in assigned.items():
        predicted, actual = by_name.setdefault(name, ({}, {}))
        predicted[doc_id] = str(cluster)
        actual[doc_id] = truth[doc_id][1]
    reports = [evaluate_clustering(clustering_from_assignments(predicted),
                                   clustering_from_assignments(actual))
               for predicted, actual in by_name.values()]
    return (sum(report.bcubed_f1 for report in reports) / len(reports),
            sum(report.fp for report in reports) / len(reports))


class Workload:
    """One workload bound to a seed and an output directory."""

    name = ""

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.sizes = SIZES[self.name]
        self.fixture_dir = out_dir / f"fixture-{self.name}"
        self.corpus_path = self.fixture_dir / "corpus.json"
        self.model_path = self.fixture_dir / "model.json"
        self.config = ResolverConfig(backend=BACKEND)

    def build_fixture(self) -> None:
        raise NotImplementedError

    def rep(self, clock, tracer) -> dict:
        """One repetition: set-up, timed region, checks.

        Returns a dict with ``setup_s``/``region_s`` (calibrated) and
        their ``*_raw_s`` twins, ``pages``, calibrated and raw latency
        samples in ms, ``bcubed_f1``, ``fp``, ``digest``, ``attempted``,
        ``failed`` and workload-specific ``counts``.
        """
        raise NotImplementedError


# -- batch -------------------------------------------------------------------

class BatchWorkload(Workload):
    """fit -> release_fit_caches -> evaluate over a labelled corpus, then
    one label-free ``predict`` per name (the per-name request latency)."""

    def make_corpus(self) -> DocumentCollection:
        raise NotImplementedError

    def build_fixture(self) -> None:
        corpus = self.make_corpus()
        # The seed orders the blocks; pages keep their order inside a
        # block, because the training sample is drawn by position and
        # reshuffling pages moves bcubed_f1 by up to 5 % on 8 names.
        blocks = list(corpus.collections)
        random.Random(self.seed).shuffle(blocks)
        self.fixture_dir.mkdir(parents=True, exist_ok=True)
        save_collection(DocumentCollection(corpus.name, blocks,
                                           corpus.metadata),
                        self.corpus_path)

    def setup(self, tracer):
        with tracer.span("corpus.load"):
            collection = load_collection(self.corpus_path)
        unlabeled = collection.without_labels()
        resolver = EntityResolver(self.config)
        with tracer.span("extraction.pipeline_build"):
            pipeline = resolver.pipeline_for(collection)
        return collection, unlabeled, resolver, pipeline

    def rep(self, clock, tracer) -> dict:
        gc.collect()
        clock.detach()
        (collection, unlabeled, resolver, pipeline), setup_raw, setup_f = (
            clock.measure(lambda: self.setup(tracer)))

        def fit():
            with tracer.span("pipeline.fit_pass"):
                model = resolver.fit(collection,
                                     training_seed=TRAINING_SEED,
                                     pipeline=pipeline)
                model.release_fit_caches()
            return model

        def evaluate():
            with tracer.span("pipeline.predict_pass"):
                return model.evaluate(collection)

        model, fit_raw, fit_f = clock.measure(fit)
        resolution, eval_raw, eval_f = clock.measure(evaluate)

        def predict_name(block):
            with tracer.span("request.predict_name"):
                try:
                    return model.predict(block)
                except Exception:  # counted as a failed request
                    return None

        predictions, lat_raw, lat_f, _, _ = clock.sliced(
            unlabeled.collections, predict_name)
        model.release_fit_caches()

        failed = 0
        for block, result in zip(collection.collections, resolution.blocks):
            failed += result.predicted.items != frozenset(block.page_ids())
        for block, prediction in zip(collection.collections, predictions):
            failed += (prediction is None or prediction.predicted.items
                       != frozenset(block.page_ids()))
        report = resolution.mean_report()
        return {
            "setup_raw_s": setup_raw, "setup_s": setup_raw * setup_f,
            "region_raw_s": fit_raw + eval_raw,
            "region_s": fit_raw * fit_f + eval_raw * eval_f,
            "pages": collection.n_pages(),
            "lat_ms": [raw * f * 1e3 for raw, f in zip(lat_raw, lat_f)],
            "lat_raw_ms": [raw * 1e3 for raw in lat_raw],
            "bcubed_f1": report.bcubed_f1, "fp": report.fp,
            "digest": collection_digest(resolution.blocks),
            "attempted": 2 * len(collection.collections), "failed": failed,
            "counts": {}, "handle": model,
        }


class BatchWide(BatchWorkload):
    name = "batch_wide"

    def make_corpus(self) -> DocumentCollection:
        return scale_corpus(self.sizes["names"], seed=CORPUS_SEED,
                            pages_per_name=self.sizes["pages_per_name"],
                            collision_rate=self.sizes["collision_rate"])


class BatchDeep(BatchWorkload):
    name = "batch_deep"

    def make_corpus(self) -> DocumentCollection:
        return www05_like(seed=CORPUS_SEED,
                          pages_per_name=self.sizes["pages_per_name"],
                          names=DEEP_NAMES[:self.sizes["names"]])


# -- serving -----------------------------------------------------------------

class ServeWorkload(Workload):
    """A fitted model on disk, an engine rebuilt per repetition, and a
    closed loop of requests from one client."""

    max_batch = 16

    def make_corpus(self) -> DocumentCollection:
        raise NotImplementedError

    def build_fixture(self) -> None:
        self.fixture_dir.mkdir(parents=True, exist_ok=True)
        self.collection = self.make_corpus()
        save_collection(self.collection, self.corpus_path)
        resolver = EntityResolver(self.config)
        self.pipeline = resolver.pipeline_for(self.collection)
        model = resolver.fit(self.collection, training_seed=TRAINING_SEED,
                             pipeline=self.pipeline)
        model.release_fit_caches()
        model.save(self.model_path)
        self.truth = {page.doc_id: (page.query_name, page.person_id)
                      for page in self.collection.all_pages()}
        self.pages = {block.query_name: list(block.without_labels().pages)
                      for block in self.collection}
        self.plan(random.Random(self.seed))

    def plan(self, rng: random.Random) -> None:
        """Derive warm-up pages and the request schedule from the seed."""
        raise NotImplementedError

    def build_engine(self, tracer):
        with tracer.span("core.model_load"):
            loaded = ResolverModel.load(self.model_path)
        with tracer.span("extraction.pipeline_build"):
            pipeline = EntityResolver(self.config).pipeline_for(
                self.collection)
        # A loaded model takes the ambient backend; the benchmark pins it.
        model = ResolverModel(replace(loaded.config, backend=BACKEND),
                              loaded.blocks, pipeline=pipeline)
        with tracer.span("serving.engine_build"):
            engine = ServingEngine(model, pipeline=pipeline,
                                   max_blocks=self.sizes["max_blocks"],
                                   max_batch=self.max_batch,
                                   record_journal=tracer.enabled)
        return engine

    def features_for(self, pages) -> dict | None:
        """Precomputed features a request carries (``None``: raw pages)."""
        return None

    def warm(self, engine) -> list:
        assignments = []
        for batch in self.warm_batches:
            assignments.extend(
                engine.resolve(batch, features=self.features_for(batch)))
        return assignments

    def session_requests(self) -> list:
        """The stream as ``(pages, features)`` singleton requests."""
        raise NotImplementedError

    def stream(self, engine, clock, tracer):
        """Run the schedule; returns (assignments, lat_raw_s, lat_factor,
        raw_s, cal_s, failed_requests, counts)."""
        raise NotImplementedError

    def sent_pages(self) -> int:
        raise NotImplementedError

    def rep(self, clock, tracer) -> dict:
        gc.collect()
        clock.detach()

        def setup():
            engine = self.build_engine(tracer)
            with tracer.span("serving.bootstrap"):
                return engine, self.warm(engine)

        (engine, assignments), setup_raw, setup_f = clock.measure(setup)
        streamed, lat_raw, lat_f, raw_s, cal_s, failed, counts = (
            self.stream(engine, clock, tracer))
        assignments = assignments + streamed

        assigned = {a.doc_id: (self.truth[a.doc_id][0], a.cluster_index)
                    for a in assignments}
        attempted = len(lat_raw)
        # every page sent got exactly one Assignment
        failed += (len(assignments) != len(assigned)
                   or len(assigned) != self.sent_pages())
        failed += engine.stats.failed_requests != 0
        attempted += 2
        bcubed_f1, fp = score_assignments(assigned, self.truth)
        stats = engine.stats
        counts.update({
            "bootstraps": stats.bootstraps,
            "lru_hit_rate": stats.lru_hit_rate,
            "coalesced_batches": stats.coalesced_batches,
            "mean_coalesced_pages": stats.mean_coalesced_pages,
        })
        return {
            "setup_raw_s": setup_raw, "setup_s": setup_raw * setup_f,
            "region_raw_s": raw_s, "region_s": cal_s,
            "pages": len(streamed),
            "lat_ms": [raw * f * 1e3 for raw, f in zip(lat_raw, lat_f)],
            "lat_raw_ms": [raw * 1e3 for raw in lat_raw],
            "bcubed_f1": bcubed_f1, "fp": fp,
            "digest": partition_digest(assigned.items()),
            "attempted": attempted, "failed": failed,
            "counts": counts, "handle": engine,
        }


class ServeStream(ServeWorkload):
    """Raw single-page requests over more names than the LRU holds."""

    name = "serve_stream"

    def make_corpus(self) -> DocumentCollection:
        return scale_corpus(self.sizes["names"], seed=CORPUS_SEED,
                            pages_per_name=self.sizes["pages_per_name"],
                            collision_rate=0.3)

    def plan(self, rng: random.Random) -> None:
        names = self.collection.query_names()  # popularity rank = order
        warm_pages = self.sizes["warm_pages"]
        self.warm_batches = [self.pages[name][:warm_pages]
                             for name in names[:self.sizes["warm_names"]]]
        rest = [self.pages[name][warm_pages if rank < self.sizes["warm_names"]
                                 else 0:]
                for rank, name in enumerate(names)]
        counts = zipf_counts([len(pages) for pages in rest],
                             self.sizes["requests"], self.sizes["zipf"])
        # A name's pages arrive in corpus order.  Which name each request
        # goes to is one fixed draw; the seed jitters it in windows of 8.
        base = multiset_order(counts, random.Random(CORPUS_SEED))
        self.schedule = interleave(
            rest, windowed_shuffle(base, self.sizes["jitter_window"], rng))

    def sent_pages(self) -> int:
        return sum(map(len, self.warm_batches)) + len(self.schedule)

    def session_requests(self) -> list:
        return [([page], None) for page in self.schedule]

    def stream(self, engine, clock, tracer):
        stats = engine.stats
        missed: list[bool] = []

        def request(page):
            misses = stats.lru_misses
            with tracer.span("request.resolve"):
                try:
                    result = engine.resolve([page])
                except Exception:  # counted as a failed request
                    result = None
            missed.append(stats.lru_misses != misses)
            return result

        results, lat_raw, lat_f, raw_s, cal_s = clock.sliced(
            self.schedule, request)
        failed = sum(result is None for result in results)
        streamed = [a for result in results if result for a in result]
        return (streamed, lat_raw, lat_f, raw_s, cal_s, failed,
                {"missed": missed})


class ServeBurst(ServeWorkload):
    """Bursts of 8 feature-carrying requests, coalesced by ``flush``."""

    name = "serve_burst"

    def make_corpus(self) -> DocumentCollection:
        return www05_like(seed=CORPUS_SEED,
                          pages_per_name=self.sizes["pages_per_name"],
                          names=BURST_NAMES)

    def plan(self, rng: random.Random) -> None:
        self.features = {}
        for block in self.collection:
            self.features.update(self.pipeline.extract_block(block))
        warm_pages, burst = self.sizes["warm_pages"], self.sizes["burst"]
        self.warm_batches = [self.pages[name][:warm_pages]
                             for name in BURST_NAMES]
        queues = []
        for name in BURST_NAMES:
            rest = self.pages[name][warm_pages:]
            queues.append([rest[start:start + burst]
                           for start in range(0, len(rest), burst)])
        # Round-robin over names, the order inside each round seeded.  A
        # name's pages arrive in corpus order, so its clusters — and the
        # quality scores — do not depend on the seed.
        rounds = list(range(len(queues))) * len(queues[0])
        self.bursts = interleave(
            queues, windowed_shuffle(rounds, len(queues), rng))

    def sent_pages(self) -> int:
        return (sum(map(len, self.warm_batches))
                + sum(map(len, self.bursts)))

    def features_for(self, pages) -> dict:
        return {page.doc_id: self.features[page.doc_id] for page in pages}

    def session_requests(self) -> list:
        return [([page], self.features_for([page]))
                for burst in self.bursts for page in burst]

    def stream(self, engine, clock, tracer):
        timer = clock.timer

        def burst(pages):
            latencies: list[float] = []
            futures = []
            with tracer.span("request.burst"):
                for page in pages:
                    submitted = timer()
                    future = engine.submit(
                        [page], features=self.features_for([page]))
                    future.add_done_callback(
                        lambda _, submitted=submitted:
                        latencies.append(timer() - submitted))
                    futures.append(future)
                engine.flush()
            return futures, latencies

        results, burst_raw, burst_f, raw_s, cal_s = clock.sliced(
            self.bursts, burst)
        streamed, lat_raw, lat_f = [], [], []
        failed = 0
        for (futures, latencies), factor in zip(results, burst_f):
            lat_raw.extend(latencies)
            lat_f.extend([factor] * len(latencies))
            for future in futures:
                if future.exception() is not None:
                    failed += 1
                else:
                    streamed.extend(future.result())
        failed += engine.stats.coalesced_batches != len(self.bursts)
        return (streamed, lat_raw, lat_f, raw_s, cal_s, failed,
                {"burst_ms": [raw * f * 1e3
                              for raw, f in zip(burst_raw, burst_f)]})


WORKLOADS = {cls.name: cls
             for cls in (BatchWide, BatchDeep, ServeStream, ServeBurst)}
