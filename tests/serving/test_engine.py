"""ServingEngine — single-threaded semantics.

The engine's single-caller behavior must be indistinguishable from a
plain :class:`~repro.pipeline.session.ResolutionSession`: same
assignments, same partitions, same LRU bookkeeping, same rejections.
Concurrency is exercised separately in ``test_concurrency.py``.
"""

from __future__ import annotations

import random
import threading
from dataclasses import replace

import pytest

from repro.core.model import ResolverModel
from repro.corpus.documents import NameCollection
from repro.pipeline.session import ResolutionSession
from repro.serving import ServingEngine, verify_serial_equivalence
from repro.similarity.backends import (
    BACKENDS,
    ScoringBackend,
    resolve_backend,
)


@pytest.fixture()
def engine(serving_model, pipeline):
    return ServingEngine(serving_model, pipeline=pipeline,
                         record_journal=True)


class TestSingleThreadParity:
    def test_resolve_matches_plain_session(self, engine, serving_model,
                                           pipeline, small_dataset,
                                           all_features):
        session = ResolutionSession(serving_model, pipeline=pipeline)
        for name in small_dataset.query_names():
            pages = list(small_dataset.by_name(name).pages)
            feats = {p.doc_id: all_features[p.doc_id] for p in pages}
            base, rest = pages[:20], pages[20:]
            assert (engine.resolve(base, features=feats)
                    == session.resolve(base, features=feats))
            for page in rest:
                assert (engine.resolve(page, features=feats)
                        == session.resolve(page, features=feats))
        for name in small_dataset.query_names():
            assert engine.clusters(name) == session.clusters(name)
        assert engine.prepared_names() == session.prepared_names()

    def test_single_thread_run_replays_identically(self, engine,
                                                   small_dataset,
                                                   all_features):
        for name in small_dataset.query_names():
            pages = list(small_dataset.by_name(name).pages)
            feats = {p.doc_id: all_features[p.doc_id] for p in pages}
            engine.resolve(pages[:15], features=feats)
            for page in pages[15:]:
                engine.resolve(page, features=feats)
        report = verify_serial_equivalence(engine)
        assert report["identical"], report["diffs"]
        assert report["versions"] == [1]
        assert report["units"] == engine.stats.units

    def test_stats_track_requests_pages_and_lru(self, engine, small_block,
                                                all_features):
        pages = list(small_block.pages)
        feats = {p.doc_id: all_features[p.doc_id] for p in pages}
        engine.resolve(pages[:10], features=feats)
        for page in pages[10:14]:
            engine.resolve(page, features=feats)
        stats = engine.stats
        assert stats.requests == 5
        assert stats.pages == 14
        assert stats.bootstraps == 1
        assert stats.lru_hits == 4  # every incremental found the block hot
        assert stats.failed_requests == 0
        assert stats.latency.count == 5
        assert 0.0 < stats.p50_request_seconds <= stats.p99_request_seconds


class TestValidation:
    @pytest.mark.parametrize("knobs", [
        {"max_batch": 0},
        {"batch_window": -0.001},
        {"queue_depth": 0},
    ])
    def test_invalid_knobs_raise(self, serving_model, pipeline, knobs):
        with pytest.raises(ValueError):
            ServingEngine(serving_model, pipeline=pipeline, **knobs)

    def test_unknown_name_rejected_atomically(self, engine, small_block,
                                              all_features):
        pages = list(small_block.pages)
        feats = {p.doc_id: all_features[p.doc_id] for p in pages}
        stranger = replace(pages[0], query_name="No Such Person")
        with pytest.raises(KeyError):
            engine.resolve([stranger, *pages[1:4]], features=feats)
        # Nothing from the rejected request leaked into engine state.
        assert engine.stats.pages == 0
        assert engine.journal == []
        assert engine.prepared_names() == []
        # The engine stays serviceable.
        assert engine.resolve(pages[:5], features=feats)

    def test_duplicate_page_fails_only_that_request(self, engine,
                                                    small_block,
                                                    all_features):
        pages = list(small_block.pages)
        feats = {p.doc_id: all_features[p.doc_id] for p in pages}
        engine.resolve(pages[:10], features=feats)
        with pytest.raises(ValueError):
            engine.resolve(pages[0], features=feats)
        assert engine.stats.failed_requests == 1
        assert engine.resolve(pages[10], features=feats)
        # The failed unit fails identically under serial replay.
        report = verify_serial_equivalence(engine)
        assert report["identical"], report["diffs"]

    def test_duplicate_inside_a_burst_fails_alone(self, engine, small_block,
                                                  all_features):
        pages = list(small_block.pages)
        feats = {p.doc_id: all_features[p.doc_id] for p in pages}
        engine.resolve(pages[:10], features=feats)
        burst = [pages[10], pages[11], pages[0], pages[12]]
        futures = [engine.submit(page, features=feats) for page in burst]
        engine.flush()
        errors = [future.exception(timeout=5) for future in futures]
        assert [error is not None for error in errors] \
            == [False, False, True, False]
        assert isinstance(errors[2], ValueError)
        assert pages[0].doc_id in str(errors[2])
        assert [future.result()[0].doc_id
                for future in futures if future is not futures[2]] \
            == [page.doc_id for page in pages[10:13]]
        assert engine.stats.failed_requests == 1
        assert engine.clusters(small_block.query_name).n_items() == 13
        report = verify_serial_equivalence(engine)
        assert report["identical"], report["diffs"]

    def test_partly_failed_request_frees_its_queue_slot(
            self, serving_model, pipeline, small_dataset, all_features):
        engine = ServingEngine(serving_model, pipeline=pipeline,
                               queue_depth=1, record_journal=True)
        first, second = small_dataset.collections[:2]
        engine.resolve(first.pages[:5], features=all_features)
        with pytest.raises(ValueError, match="already resolved"):
            engine.resolve([first.pages[0], second.pages[0]],
                           features=all_features)
        # the other name's unit was served all the same
        assert engine.clusters(second.query_name).n_items() == 1
        caller = threading.Thread(
            target=engine.resolve, args=(first.pages[5],),
            kwargs={"features": all_features}, daemon=True)
        caller.start()
        caller.join(timeout=5)
        assert not caller.is_alive(), "the failed request kept its slot"
        report = verify_serial_equivalence(engine)
        assert report["identical"], report["diffs"]


class _CountingBackend(ScoringBackend):
    """Delegates to ``inner``, counting the whole-block sweeps."""

    name = "counting-test"

    def __init__(self, inner):
        self.inner = inner
        self.block_calls = 0

    def block_scores(self, ids, features, functions, mask=None):
        self.block_calls += 1
        return self.inner.block_scores(ids, features, functions, mask=mask)

    def pair_scores(self, function, new, others):
        return self.inner.pair_scores(function, new, others)


class TestBatchOfOne:
    @pytest.mark.parametrize("backend", ["python", "numpy"])
    def test_one_page_for_a_hot_name_never_sweeps_the_block(
            self, backend, monkeypatch, serving_model, pipeline,
            small_block, all_features):
        counting = _CountingBackend(resolve_backend(backend))
        monkeypatch.setitem(BACKENDS._entries, counting.name, counting)
        model = ResolverModel(
            replace(serving_model.config, backend=counting.name),
            serving_model.blocks, pipeline=pipeline)
        engine = ServingEngine(model, pipeline=pipeline)
        pages = list(small_block.pages)
        feats = {p.doc_id: all_features[p.doc_id] for p in pages}
        engine.resolve(pages[:10], features=feats)
        counting.block_calls = 0
        engine.resolve(pages[10], features=feats)
        assert counting.block_calls == 0
        assert engine.stats.coalesced_batches == 0
        # two queued pages are a batch: one sweep
        futures = [engine.submit(page, features=feats)
                   for page in pages[11:13]]
        engine.flush()
        assert all(future.result(timeout=5) for future in futures)
        assert counting.block_calls == 1
        assert engine.stats.coalesced_batches == 1


@pytest.fixture(params=["session", "engine"])
def serve(request):
    """Either API over ``model``: the outcomes below must not depend on
    which one served the page.  Every engine built is replayed when the
    test ends."""
    engines = []

    def build(model, **kwargs):
        if request.param == "session":
            return ResolutionSession(model, **kwargs)
        engines.append(ServingEngine(model, record_journal=True, **kwargs))
        return engines[-1]
    yield build
    for engine in engines:
        report = verify_serial_equivalence(engine)
        assert report["identical"], report["diffs"]


class TestFailureLeavesDefinedState:
    def test_unit_with_a_duplicate_applies_nothing(self, serve, serving_model,
                                                   small_block, all_features):
        server = serve(serving_model)
        name = small_block.query_name
        pages = list(small_block.pages)
        feats = {p.doc_id: all_features[p.doc_id] for p in pages}
        server.resolve(pages[:10], features=feats)
        before = server.clusters(name)
        for bad in ([pages[10], pages[0]], [pages[10], pages[10]]):
            with pytest.raises(ValueError, match="already resolved"):
                server.resolve(bad, features=feats)
            assert server.clusters(name) == before
        # the corrected request is not "already resolved"
        assert [a.doc_id for a in
                server.resolve(pages[10:12], features=feats)] \
            == [page.doc_id for page in pages[10:12]]

    def test_cold_unit_with_a_duplicate_stays_cold(self, serve, serving_model,
                                                   small_block, all_features):
        server = serve(serving_model)
        pages = list(small_block.pages)
        feats = {p.doc_id: all_features[p.doc_id] for p in pages}
        with pytest.raises(ValueError, match="already resolved"):
            server.resolve([pages[0], pages[1], pages[0]], features=feats)
        with pytest.raises(KeyError, match="no prepared state"):
            server.clusters(small_block.query_name)
        assert len(server.resolve(pages[:2], features=feats)) == 2

    def test_clusters_of_a_reserved_slot_is_a_keyerror(self, serve,
                                                       serving_model,
                                                       small_block,
                                                       all_features):
        bare = ResolverModel(serving_model.config, serving_model.blocks)
        server = serve(bare)
        pages = list(small_block.pages)[:3]
        with pytest.raises(ValueError, match="no extraction pipeline"):
            server.resolve(pages)  # raw, no pipeline
        assert server.prepared_names() == [small_block.query_name]
        with pytest.raises(KeyError, match="no prepared state"):
            server.clusters(small_block.query_name)
        with pytest.raises(KeyError, match="no prepared state"):
            server.clusters("Never Served")
        # the next request for the name bootstraps the reserved slot
        server.resolve(pages, features=all_features)
        assert server.clusters(small_block.query_name).n_items() == 3


class TestSubmitFlush:
    def test_submitted_futures_complete_on_flush(self, engine, small_block,
                                                 all_features):
        pages = list(small_block.pages)
        feats = {p.doc_id: all_features[p.doc_id] for p in pages}
        engine.resolve(pages[:10], features=feats)
        futures = [engine.submit(page, features=feats)
                   for page in pages[10:14]]
        assert not any(future.done() for future in futures)
        engine.flush()
        assignments = [future.result(timeout=5) for future in futures]
        assert [a.doc_id for (a,) in assignments] \
            == [page.doc_id for page in pages[10:14]]
        report = verify_serial_equivalence(engine)
        assert report["identical"], report["diffs"]


class TestSwap:
    def test_swap_publishes_fresh_generation(self, engine, second_model,
                                             small_block, all_features):
        pages = list(small_block.pages)
        feats = {p.doc_id: all_features[p.doc_id] for p in pages}
        engine.resolve(pages[:10], features=feats)
        before = engine.snapshot
        replacement = engine.swap(second_model)
        assert engine.snapshot is replacement
        assert replacement.version == 2
        assert list(engine.snapshots) == [1, 2]
        assert engine.stats.swaps == 1
        # Prepared state does not carry over; the old snapshot keeps its.
        assert engine.prepared_names() == []
        assert before.session.prepared_names() == [small_block.query_name]
        # Same doc ids are fresh to the new generation.
        engine.resolve(pages[:10], features=feats)
        report = verify_serial_equivalence(engine)
        assert report["identical"], report["diffs"]
        assert report["versions"] == [1, 2]

    def test_swap_inherits_pipeline_when_not_given(self, engine,
                                                   second_model):
        replacement = engine.swap(second_model)
        assert replacement.pipeline is engine.snapshots[1].pipeline

    def test_swapped_in_model_gets_its_own_read_set(
            self, serving_model, consulting, pipeline, small_dataset,
            monkeypatch):
        """A session derives each fitted state's read set once, however
        often its slot is evicted and reserved again; the session a swap
        builds derives its own model's."""
        import repro.pipeline.session as session_module
        read_fields = session_module.read_fields
        derived = []

        def counting(functions):
            derived.append(functions)
            return read_fields(functions)

        monkeypatch.setattr(session_module, "read_fields", counting)
        first, second = small_dataset.collections[:2]
        engine = ServingEngine(serving_model, pipeline=pipeline,
                               max_blocks=1, record_journal=True)
        for index in range(3):  # each name evicts the other
            engine.resolve(first.pages[index])
            engine.resolve(second.pages[index])
        assert engine.snapshot.session.stats.evicted_blocks == 5
        assert len(derived) == 2
        before = read_fields(serving_model.scoring_functions(
            serving_model.blocks[first.query_name]))
        engine.swap(consulting(serving_model, "F5"))
        engine.resolve(first.pages[3])
        after = engine.snapshot.session._prepared[first.query_name].reads
        assert after == frozenset({"organizations"}) != before
        assert len(derived) == 3
        report = verify_serial_equivalence(engine)
        assert report["identical"], report["diffs"]


class TestRawPageStream:
    """Raw pages through the engine: one page read per request, the same
    features as the serial session, replay-identical with the journal on."""

    @staticmethod
    def features_of(session, name):
        return session._prepared[name].incremental.indexed_features()

    def test_one_raw_request_reads_exactly_one_page(self, engine,
                                                    small_block,
                                                    page_reads):
        pages = list(small_block.pages)
        engine.resolve(pages[:10])
        del page_reads[:]
        engine.resolve(pages[10])
        assert page_reads == [pages[10].doc_id]

    def test_interleaved_raw_and_precomputed_match_serial_session(
            self, engine, serving_model, pipeline, small_dataset,
            assert_narrowed):
        session = ResolutionSession(serving_model, pipeline=pipeline)
        for block in small_dataset:
            pages = list(block.pages)[:16]
            engine.resolve(pages[:6])
            session.resolve(pages[:6])
            for index, page in enumerate(pages[6:], start=6):
                features = None
                if index % 2:  # this one arrives with its features
                    in_block = pipeline.extract_block(NameCollection(
                        query_name=block.query_name,
                        pages=pages[:index + 1]))
                    features = {page.doc_id: in_block[page.doc_id]}
                assert (engine.resolve(page, features=features)
                        == session.resolve(page))
        for name in small_dataset.query_names():
            # The session extracted every page for its slot's read set;
            # the engine holds the same, or the whole bundle a request
            # carried: equal on what the slot reads either way.
            for ours, theirs in zip(
                    self.features_of(engine.snapshot.session, name),
                    self.features_of(session, name), strict=True):
                assert theirs.reads is not None
                if ours.reads is None:
                    assert_narrowed(theirs, ours)
                else:
                    assert ours == theirs
                    assert (list(ours.tfidf.items())
                            == list(theirs.tfidf.items()))
        report = verify_serial_equivalence(engine)
        assert report["identical"], report["diffs"]

    def test_raw_stream_matches_precomputed_whole_features(
            self, serving_model, second_model, consulting, pipeline,
            small_dataset):
        """Single raw pages over more names than the LRU holds, with a
        mid-stream swap to a model that consults other functions: every
        assignment and every final partition equals the same stream
        served with whole features, and both engines replay serially."""
        queues = [list(block.pages)[:14] for block in small_dataset]
        order = [index for index, queue in enumerate(queues)
                 for _ in queue]
        random.Random(5).shuffle(order)
        stream = [queues[index].pop(0) for index in order]

        def build():
            return ServingEngine(serving_model, pipeline=pipeline,
                                 max_blocks=2, record_journal=True)

        raw, whole = build(), build()
        reads_seen = set()
        for position, page in enumerate(stream):
            if position == len(stream) // 2:
                for engine in (raw, whole):
                    engine.swap(consulting(second_model, "F6"))
            assigned = raw.resolve(page)
            # The page as the last of its slot's block, extracted whole.
            prepared = raw.snapshot.session._prepared[page.query_name]
            reads_seen.add(prepared.reads)
            in_block = pipeline.extract_block(NameCollection(
                query_name=page.query_name, pages=list(prepared.pages)))
            assert whole.resolve(
                page, features={page.doc_id: in_block[page.doc_id]}
            ) == assigned
        # the three fitted winners' read sets, then F6's
        assert len(reads_seen) == 3 and None not in reads_seen
        assert raw.stats.bootstraps == whole.stats.bootstraps > 6
        assert raw.prepared_names() == whole.prepared_names()
        for name in raw.prepared_names():
            assert raw.clusters(name) == whole.clusters(name)
        for engine in (raw, whole):
            report = verify_serial_equivalence(engine)
            assert report["identical"], report["diffs"]
            assert report["versions"] == [1, 2]

    def test_evict_and_rebootstrap_replays_identically(self, serving_model,
                                                       pipeline,
                                                       small_dataset):
        engine = ServingEngine(serving_model, pipeline=pipeline,
                               max_blocks=1, record_journal=True)
        first, second = small_dataset.collections[:2]
        for page in first.pages[:4]:
            engine.resolve(page)
        engine.resolve(second.pages[0])  # evicts the first name
        engine.resolve(first.pages[4])
        prepared = engine.snapshot.session._prepared[first.query_name]
        assert prepared.context.n_pages == len(prepared.pages) == 1
        report = verify_serial_equivalence(engine)
        assert report["identical"], report["diffs"]

    def test_swap_mid_stream_starts_fresh_contexts(self, engine,
                                                   second_model,
                                                   small_block):
        pages = list(small_block.pages)
        name = small_block.query_name
        engine.resolve(pages[:8])
        for page in pages[8:12]:
            engine.resolve(page)
        old = engine.snapshot.session._prepared[name]
        engine.swap(second_model)
        for page in pages[:5]:  # fresh doc ids to the new generation
            engine.resolve(page)
        new = engine.snapshot.session._prepared[name]
        assert new is not old
        assert old.context.n_pages == len(old.pages) == 12
        assert new.context.n_pages == len(new.pages) == 5
        report = verify_serial_equivalence(engine)
        assert report["identical"], report["diffs"]
        assert report["versions"] == [1, 2]

    def test_failed_raw_page_leaves_later_requests_identical(self, engine,
                                                             small_block):
        pages = list(small_block.pages)
        engine.resolve(pages[:6])
        with pytest.raises(ValueError):
            engine.resolve(pages[0])  # duplicate, read before it fails
        engine.resolve(pages[6])
        prepared = engine.snapshot.session._prepared[small_block.query_name]
        assert prepared.context.n_pages == len(prepared.pages) == 7
        report = verify_serial_equivalence(engine)
        assert report["identical"], report["diffs"]

    @pytest.mark.parametrize("cold_pages", [1, 3])
    def test_failed_bootstrap_leaves_later_requests_identical(
            self, cold_pages, serving_model, small_dataset, all_features):
        bare = ResolverModel(serving_model.config, serving_model.blocks)
        engine = ServingEngine(bare, max_blocks=1, record_journal=True)
        first, second = small_dataset.collections[:2]
        feats = {p.doc_id: all_features[p.doc_id] for p in first.pages}
        engine.resolve(first.pages[:10], features=feats)
        with pytest.raises(ValueError, match="no extraction pipeline"):
            engine.resolve(second.pages[:cold_pages])  # raw, no pipeline
        engine.resolve(first.pages[10], features=feats)
        # prepared_blocks / evicted_blocks are among what the replay diffs
        report = verify_serial_equivalence(engine)
        assert report["identical"], report["diffs"]
