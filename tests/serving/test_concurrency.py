"""ServingEngine under real thread contention.

Every test hammers an engine from a thread pool and then asserts the
determinism contract: the admission journal replayed through a plain
serial session is **bit-identical** to what the concurrent run produced
(:func:`~repro.serving.replay.verify_serial_equivalence`).  Scheduling
is left to the OS on purpose — the equivalence must hold for *any*
interleaving, so these tests are seed-free and still deterministic in
what they assert.
"""

from __future__ import annotations

import sys
from dataclasses import replace

import pytest

from repro.serving import (
    LoadRequest,
    ServingEngine,
    run_load,
    verify_serial_equivalence,
)

THREADS = 4


def _assert_serial_equivalent(engine):
    report = verify_serial_equivalence(engine)
    assert report["identical"], report["diffs"][:5]
    return report


class TestConcurrentDeterminism:
    def test_same_name_stampede(self, serving_model, pipeline, small_block,
                                all_features):
        """All workers hit one hot name: the coalescing fast path."""
        engine = ServingEngine(serving_model, pipeline=pipeline,
                               max_batch=8, record_journal=True)
        pages = list(small_block.pages)
        feats = {p.doc_id: all_features[p.doc_id] for p in pages}
        engine.resolve(pages[:10], features=feats)
        requests = [LoadRequest(pages=[p],
                                features={p.doc_id: feats[p.doc_id]})
                    for p in pages[10:]]
        report = run_load(engine, requests, threads=THREADS)
        assert report.failed == 0, report.errors
        assert report.completed == len(requests)
        assert engine.stats.bootstraps == 1  # the warm batch, never again
        _assert_serial_equivalent(engine)

    def test_mixed_names_and_nameless_pages(self, serving_model, pipeline,
                                            small_dataset, all_features,
                                            warm_requests):
        """Named and token-routed nameless traffic interleaved."""
        engine = ServingEngine(serving_model, pipeline=pipeline,
                               record_journal=True)
        requests = warm_requests(head=15)
        for name in small_dataset.query_names():
            for page in small_dataset.by_name(name).pages[15:]:
                requests.append(LoadRequest(
                    pages=[replace(page, query_name="")],
                    features={page.doc_id: all_features[page.doc_id]}))
        report = run_load(engine, requests, threads=THREADS)
        # Unroutable nameless pages are legal rejections; determinism
        # still has to hold over everything that was admitted.
        assert report.completed + report.failed == len(requests)
        _assert_serial_equivalent(engine)
        assert engine.snapshot.session.stats.routed_pages > 0

    def test_eviction_under_load(self, serving_model, pipeline,
                                 warm_requests, single_page_requests):
        """An LRU of 2 under three names: constant evict/rebuild churn."""
        engine = ServingEngine(serving_model, pipeline=pipeline,
                               max_blocks=2, record_journal=True)
        requests = warm_requests(head=10) + single_page_requests(skip=10)
        report = run_load(engine, requests, threads=THREADS)
        assert report.failed == 0, report.errors
        _assert_serial_equivalent(engine)
        assert engine.snapshot.session.stats.evicted_blocks > 0

    def test_hot_swap_under_load(self, serving_model, second_model,
                                 pipeline, single_page_requests):
        """A mid-traffic swap loses nothing and both journals replay."""
        engine = ServingEngine(serving_model, pipeline=pipeline,
                               record_journal=True)
        requests = single_page_requests()
        report = run_load(engine, requests, threads=THREADS,
                          swap_plan={len(requests) // 2: second_model})
        assert report.failed == 0, report.errors
        assert engine.stats.swaps == 1
        assert engine.snapshot.version == 2
        replay = _assert_serial_equivalent(engine)
        assert replay["versions"] == [1, 2]
        assert engine.stats.swap_stall_seconds < 0.1

    def test_queue_depth_one_serializes_without_deadlock(self,
                                                         serving_model,
                                                         pipeline,
                                                         small_block,
                                                         all_features):
        """Full backpressure: one admission slot, many callers."""
        engine = ServingEngine(serving_model, pipeline=pipeline,
                               queue_depth=1, record_journal=True)
        pages = list(small_block.pages)
        feats = {p.doc_id: all_features[p.doc_id] for p in pages}
        engine.resolve(pages[:10], features=feats)
        requests = [LoadRequest(pages=[p],
                                features={p.doc_id: feats[p.doc_id]})
                    for p in pages[10:]]
        report = run_load(engine, requests, threads=THREADS)
        assert report.failed == 0, report.errors
        assert report.completed == len(requests)
        _assert_serial_equivalent(engine)

    def test_session_counters_lose_no_update(self, serving_model, pipeline,
                                             warm_requests,
                                             single_page_requests):
        """``process`` folds its counts into one ``SessionStats`` behind
        the stats' own lock while admission and request completion write
        the same record from other threads; more threads than cores at a
        tiny switch interval is where an unguarded read-modify-write
        would drop one."""
        engine = ServingEngine(serving_model, pipeline=pipeline)
        warm = warm_requests(head=10)
        for request in warm:
            engine.resolve(request.pages, features=request.features)
        requests = single_page_requests(skip=10)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            report = run_load(engine, requests, threads=2 * THREADS)
        finally:
            sys.setswitchinterval(interval)
        assert report.failed == 0, report.errors
        stats = engine.snapshot.session.stats
        assert stats.incremental_assignments == len(requests)
        assert stats.requests == len(warm) + len(requests)
        assert stats.pages == engine.stats.pages
        assert stats.new_entities == sum(
            len(engine.clusters(name)) for name in engine.prepared_names())

    @pytest.mark.parametrize("max_batch", [1, 4])
    def test_window_setting_never_changes_results(self, serving_model,
                                                  pipeline, warm_requests,
                                                  single_page_requests,
                                                  max_batch):
        """The batch bound trades latency, never correctness: the final
        partitions depend only on admission order, which replay
        normalizes away."""
        engine = ServingEngine(serving_model, pipeline=pipeline,
                               max_batch=max_batch, record_journal=True)
        requests = warm_requests(head=10) + single_page_requests(skip=10)
        report = run_load(engine, requests, threads=THREADS)
        assert report.failed == 0, report.errors
        _assert_serial_equivalent(engine)
