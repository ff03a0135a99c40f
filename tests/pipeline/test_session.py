"""ResolutionSession — the online request path.

The acceptance bar: a held-out page resolved through the session gets
exactly the assignment a hand-driven
:class:`~repro.core.incremental.IncrementalResolver` would produce from
the same fitted model.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.core.config import ResolverConfig
from repro.core.incremental import IncrementalResolver
from repro.core.model import ResolverModel
from repro.core.resolver import EntityResolver
from repro.corpus.documents import NameCollection
from repro.extraction.concepts import ConceptExtractor
from repro.extraction.ner import DictionaryNer
from repro.extraction.tfidf import TfidfVectorizer
from repro.pipeline import ResolutionSession
from repro.pipeline.session import SessionStats, _PreparedBlock


@pytest.fixture(scope="module")
def split_block(small_block, block_features):
    pages = list(small_block.pages)
    base = NameCollection(query_name=small_block.query_name,
                          pages=pages[:-6])
    held_out = pages[-6:]
    base_features = {page.doc_id: block_features[page.doc_id]
                     for page in base.pages}
    return base, base_features, held_out


@pytest.fixture(scope="module")
def fitted_model(split_block):
    base, base_features, _ = split_block
    return EntityResolver(ResolverConfig()).fit(
        base, training_seed=0, features=base_features)


@pytest.fixture()
def saved_model(fitted_model, tmp_path):
    path = tmp_path / "model.json"
    fitted_model.save(path)
    return path


class TestBootstrap:
    def test_batch_bootstrap_matches_model_predict(self, split_block,
                                                   saved_model,
                                                   block_features):
        base, base_features, _ = split_block
        session = ResolutionSession.open(saved_model)
        assignments = session.resolve(list(base.pages),
                                      features=base_features)
        assert len(assignments) == len(base.pages)
        assert [a.doc_id for a in assignments] == base.page_ids()

        model = ResolverModel.load(saved_model)
        prediction = model.predict_block(base, features=base_features)
        assert session.clusters(base.query_name) == prediction.predicted
        # One bootstrap assignment per predicted entity founded it.
        founders = sum(1 for a in assignments if a.created_new_cluster)
        assert founders == len(prediction.predicted)

    def test_single_page_cold_start_founds_entity(self, split_block,
                                                  saved_model,
                                                  block_features):
        base, _, held_out = split_block
        session = ResolutionSession.open(saved_model)
        page = held_out[0]
        assignment = session.resolve(
            page, features={page.doc_id: block_features[page.doc_id]})[0]
        assert assignment.created_new_cluster
        assert assignment.cluster_index == 0
        assert session.clusters(base.query_name) is not None

    def test_unknown_name_raises_models_keyerror(self, saved_model,
                                                 small_dataset):
        session = ResolutionSession.open(saved_model)
        other = small_dataset.by_name("Adam Cheyer").pages[0]
        with pytest.raises(KeyError, match="no fitted state"):
            session.resolve(other)

    def test_unknown_name_rejects_request_atomically(self, split_block,
                                                     saved_model,
                                                     small_dataset,
                                                     block_features):
        """A mixed request with one unknown name assigns nothing, so the
        same request can be retried after the caller fixes it."""
        base, base_features, held_out = split_block
        session = ResolutionSession.open(saved_model)
        session.resolve(list(base.pages), features=base_features)

        known = held_out[0]
        unknown = small_dataset.by_name("Adam Cheyer").pages[0]
        features = {known.doc_id: block_features[known.doc_id]}
        with pytest.raises(KeyError, match="no fitted state"):
            session.resolve([known, unknown], features=features)
        # The valid page was not consumed: the retry without the bad
        # name succeeds instead of raising "already resolved".
        assignment = session.resolve(known, features=features)[0]
        assert assignment.doc_id == known.doc_id

    def test_model_block_fallback_serves_unknown_names(self, split_block,
                                                       saved_model,
                                                       small_dataset,
                                                       pipeline):
        base, _, _ = split_block
        session = ResolutionSession.open(
            saved_model, pipeline=pipeline, model_block=base.query_name)
        other = small_dataset.by_name("Adam Cheyer").pages[0]
        assignment = session.resolve(other)[0]
        assert assignment.created_new_cluster
        assert "Adam Cheyer" in session.prepared_names()


class TestIncrementalParity:
    def test_held_out_pages_match_incremental_resolver(self, split_block,
                                                       saved_model,
                                                       block_features):
        """The acceptance case: session.resolve == IncrementalResolver."""
        base, base_features, held_out = split_block
        session = ResolutionSession.open(saved_model)
        session.resolve(list(base.pages), features=base_features)

        reference = IncrementalResolver.from_model(
            ResolverModel.load(saved_model), base, base_features)

        for page in held_out:
            features = {page.doc_id: block_features[page.doc_id]}
            ours = session.resolve(page, features=features)[0]
            expected = reference.add_page(block_features[page.doc_id])
            assert ours.doc_id == expected.doc_id
            assert ours.cluster_index == expected.cluster_index
            assert ours.created_new_cluster == expected.created_new_cluster
            assert ours.link_probability == expected.link_probability
        assert session.clusters(base.query_name) == reference.clusters()

    def test_extraction_fallback_when_no_features(self, split_block,
                                                  saved_model, pipeline):
        """Pages without precomputed features are extracted in block
        context — the request path works from raw pages alone."""
        base, base_features, held_out = split_block
        session = ResolutionSession.open(saved_model, pipeline=pipeline)
        session.resolve(list(base.pages), features=base_features)
        assignment = session.resolve(held_out[0])[0]
        assert assignment.doc_id == held_out[0].doc_id
        total = session.clusters(base.query_name).n_items()
        assert total == len(base.pages) + 1

    def test_duplicate_page_rejected(self, split_block, saved_model,
                                     block_features):
        base, base_features, held_out = split_block
        session = ResolutionSession.open(saved_model)
        session.resolve(list(base.pages), features=base_features)
        page = held_out[0]
        features = {page.doc_id: block_features[page.doc_id]}
        session.resolve(page, features=features)
        with pytest.raises(ValueError, match="already resolved"):
            session.resolve(page, features=features)


class TestLruAndStats:
    def test_lru_evicts_least_recent_block(self, small_dataset, pipeline):
        model = EntityResolver(ResolverConfig()).fit(small_dataset,
                                                     training_seed=0)
        session = ResolutionSession(model, pipeline=pipeline, max_blocks=2)
        names = small_dataset.query_names()
        for name in names:  # three blocks through a two-slot LRU
            session.resolve(list(small_dataset.by_name(name).pages))
        assert len(session.prepared_names()) == 2
        assert names[0] not in session
        assert session.stats.evicted_blocks == 1
        with pytest.raises(KeyError, match="no prepared state"):
            session.clusters(names[0])

    def test_evicted_block_rebuilds_on_next_contact(self, small_dataset,
                                                    pipeline):
        model = EntityResolver(ResolverConfig()).fit(small_dataset,
                                                     training_seed=0)
        session = ResolutionSession(model, pipeline=pipeline, max_blocks=1)
        names = small_dataset.query_names()
        session.resolve(list(small_dataset.by_name(names[0]).pages))
        session.resolve(list(small_dataset.by_name(names[1]).pages))
        assert names[0] not in session
        # Back to the evicted name: a fresh bootstrap serves it again.
        session.resolve(list(small_dataset.by_name(names[0]).pages))
        assert names[0] in session
        assert session.stats.prepared_blocks == 3

    def test_stats_counters(self, split_block, saved_model, block_features):
        base, base_features, held_out = split_block
        session = ResolutionSession.open(saved_model)
        session.resolve(list(base.pages), features=base_features)
        for page in held_out[:2]:
            session.resolve(page,
                            features={page.doc_id: block_features[page.doc_id]})
        stats = session.stats
        assert stats.requests == 3
        assert stats.pages == len(base.pages) + 2
        assert stats.incremental_assignments == 2
        assert stats.prepared_blocks == 1
        assert stats.seconds_total > 0.0
        assert stats.mean_request_seconds > 0.0
        assert "3 requests" in stats.summary()

    def test_empty_stats(self):
        stats = SessionStats()
        assert stats.mean_request_seconds == 0.0
        assert stats.p50_request_seconds == 0.0
        assert stats.p99_request_seconds == 0.0

    def test_latency_percentiles_come_from_the_reservoir(self):
        stats = SessionStats()
        for ms in range(1, 101):  # 1ms..100ms, uniform
            stats.record_request(ms / 1000.0, pages=1)
        assert stats.requests == 100
        assert stats.latency.count == 100
        assert stats.p50_request_seconds == pytest.approx(0.050)
        assert stats.p95_request_seconds == pytest.approx(0.095)
        assert stats.p99_request_seconds == pytest.approx(0.099)
        assert "p50" in stats.summary() and "p99" in stats.summary()

    def test_warm_of_a_hot_block_refreshes_without_rebootstrap(
            self, small_dataset, pipeline):
        """Re-warming a prepared name must not discard its incremental
        state: served assignments survive, ``prepared_blocks`` does not
        double-count, and only the LRU recency moves."""
        model = EntityResolver(ResolverConfig()).fit(small_dataset,
                                                     training_seed=0)
        session = ResolutionSession(model, pipeline=pipeline, max_blocks=2)
        names = small_dataset.query_names()
        first = small_dataset.by_name(names[0])
        head = NameCollection(query_name=names[0],
                              pages=list(first.pages)[:20])
        session.warm(head)
        # Serve pages the warm batch did not contain, then re-warm with
        # the original head: the partition must keep the served pages.
        for page in list(first.pages)[20:24]:
            session.resolve(page)
        partition = session.clusters(names[0])
        session.resolve(list(small_dataset.by_name(names[1]).pages)[:10])
        assert session.warm(head) == partition
        assert session.stats.prepared_blocks == 2  # one per name, no redo
        assert session.stats.evicted_blocks == 0
        # The re-warm refreshed recency: a third name now evicts the
        # *other* block, not the re-warmed one.
        session.resolve(list(small_dataset.by_name(names[2]).pages)[:10])
        assert names[0] in session
        assert names[1] not in session

    def test_invalid_max_blocks(self, fitted_model):
        with pytest.raises(ValueError, match="max_blocks"):
            ResolutionSession(fitted_model, max_blocks=0)

    def test_unsupported_combiner(self, small_block, block_features,
                                  block_graphs):
        model = EntityResolver(ResolverConfig(combiner="majority")).fit(
            small_block, training_seed=0, graphs=block_graphs)
        with pytest.raises(ValueError, match="combiner"):
            ResolutionSession(model)


class TestExtractionContext:
    """A served raw page is read once: the block's TF-IDF statistics
    grow with the block instead of being rebuilt per request."""

    @pytest.fixture()
    def raw_session(self, fitted_model, pipeline):
        return ResolutionSession(fitted_model, pipeline=pipeline)

    @staticmethod
    def in_block(pipeline, query_name, pages):
        """The page's features as the last page of the block ``pages``."""
        block = NameCollection(query_name=query_name, pages=list(pages))
        return pipeline.extract_block(block)[pages[-1].doc_id]

    @staticmethod
    def same(got, expected):
        assert got == expected
        assert list(got.tfidf.items()) == list(expected.tfidf.items())

    def test_every_prefix_extracts_as_in_its_block(self, raw_session,
                                                   pipeline, small_block):
        pages = list(small_block.pages)[:14]
        prepared = _PreparedBlock(query_name=small_block.query_name)
        for index, page in enumerate(pages):
            got = raw_session._extract_page(prepared, page)
            prepared.pages.append(page)
            self.same(got, self.in_block(pipeline, small_block.query_name,
                                         pages[:index + 1]))
        assert prepared.context.n_pages == len(pages)

    def test_precomputed_pages_are_folded_in_when_next_needed(
            self, raw_session, pipeline, small_block):
        """Interleaved traffic: pages that joined with features are
        caught up on lazily, by the next raw page."""
        pages = list(small_block.pages)[:12]
        prepared = _PreparedBlock(query_name=small_block.query_name)
        for index, page in enumerate(pages):
            if index % 3:  # joined with precomputed features: not read
                prepared.pages.append(page)
                continue
            got = raw_session._extract_page(prepared, page)
            prepared.pages.append(page)
            assert prepared.context.n_pages == index + 1
            self.same(got, self.in_block(pipeline, small_block.query_name,
                                         pages[:index + 1]))
        # the trailing precomputed pages are still pending
        assert prepared.context.n_pages == len(pages) - 2

    def test_interleaved_requests_resolve_like_all_raw(self, fitted_model,
                                                       pipeline, split_block):
        base, _, held_out = split_block
        pages = list(base.pages)[:8] + held_out
        name = base.query_name
        raw = ResolutionSession(fitted_model, pipeline=pipeline)
        mixed = ResolutionSession(fitted_model, pipeline=pipeline)
        for index, page in enumerate(pages):
            features = None
            if index % 2:
                features = {page.doc_id: self.in_block(pipeline, name,
                                                       pages[:index + 1])}
            assert (mixed.resolve(page, features=features)
                    == raw.resolve(page))
        assert mixed.clusters(name) == raw.clusters(name)

    def test_batch_bootstrap_hands_its_context_over(self, raw_session,
                                                    pipeline, split_block,
                                                    page_reads,
                                                    assert_narrowed):
        base, _, held_out = split_block
        head = list(base.pages)[:10]
        raw_session.resolve(head)
        assert page_reads == [page.doc_id for page in head]
        prepared = raw_session._prepared[base.query_name]
        assert "tfidf" in prepared.reads
        assert prepared.context.n_pages == len(head)
        # one raw single-page request reads exactly one page, once —
        # admission's pass is the one extraction uses
        raw_session.resolve(held_out[0])
        assert page_reads[len(head):] == [held_out[0].doc_id]
        expected = self.in_block(pipeline, base.query_name,
                                 head + held_out[:1])
        assert_narrowed(prepared.incremental.indexed_features()[-1], expected)

    def test_precomputed_traffic_never_reads_a_page(self, raw_session,
                                                    split_block,
                                                    block_features,
                                                    page_reads):
        """Beyond admission's one pass for the routing index."""
        base, base_features, held_out = split_block
        raw_session.resolve(list(base.pages), features=base_features)
        page = held_out[0]
        raw_session.resolve(
            page, features={page.doc_id: block_features[page.doc_id]})
        assert page_reads == base.page_ids() + [page.doc_id]
        assert raw_session._prepared[base.query_name].context is None

    def test_rebootstrap_after_eviction_starts_from_an_empty_context(
            self, small_dataset, pipeline, assert_narrowed):
        model = EntityResolver(ResolverConfig()).fit(small_dataset,
                                                     training_seed=0)
        session = ResolutionSession(model, pipeline=pipeline, max_blocks=1)
        first, second = small_dataset.collections[:2]
        for page in first.pages[:5]:
            session.resolve(page)
        session.resolve(second.pages[0])  # evicts the first name
        assert first.query_name not in session
        page = first.pages[5]
        session.resolve(page)
        prepared = session._prepared[first.query_name]
        assert "tfidf" in prepared.reads
        assert prepared.context.n_pages == 1
        assert_narrowed(prepared.incremental.indexed_features()[-1],
                        self.in_block(pipeline, first.query_name, [page]))

    def test_failed_page_does_not_stay_in_the_context(self, raw_session,
                                                      pipeline, split_block,
                                                      assert_narrowed):
        base, _, held_out = split_block
        head = list(base.pages)[:6]
        raw_session.resolve(head)
        with pytest.raises(ValueError, match="already resolved"):
            raw_session.resolve(head[0])  # raw, so it is read before failing
        raw_session.resolve(held_out[0])
        prepared = raw_session._prepared[base.query_name]
        assert prepared.context.n_pages == len(prepared.pages) == 7
        assert_narrowed(prepared.incremental.indexed_features()[-1],
                        self.in_block(pipeline, base.query_name,
                                      head + held_out[:1]))


class TestReadSets:
    """A slot extracts what its consulted function reads, and nothing
    else runs: the extractor groups are counted, not timed."""

    EXTRACTORS = ((DictionaryNer, "extract_tokens"),
                  (ConceptExtractor, "spot"),
                  (TfidfVectorizer, "count_terms"),
                  (TfidfVectorizer, "observe"),
                  (TfidfVectorizer, "weigh"))

    @pytest.fixture()
    def calls(self, monkeypatch):
        counts: Counter = Counter()
        for owner, method in self.EXTRACTORS:
            def counting(self, *args, _run=getattr(owner, method),
                         _key=method, **kwargs):
                counts[_key] += 1
                return _run(self, *args, **kwargs)
            monkeypatch.setattr(owner, method, counting)
        return counts

    @pytest.mark.parametrize("function, ran", [
        ("F8", {"count_terms", "observe", "weigh"}),
        ("F5", {"extract_tokens"}),
        ("F7", {"extract_tokens"}),
        ("F1", {"spot"}),
        ("F2", set()),
    ])
    def test_only_the_read_group_runs(self, function, ran, fitted_model,
                                      consulting, pipeline, split_block,
                                      calls, page_reads, assert_narrowed):
        base, _, held_out = split_block
        head = list(base.pages)[:8]
        session = ResolutionSession(consulting(fitted_model, function),
                                    pipeline=pipeline)
        session.resolve(head)  # raw batch bootstrap
        for page in held_out:
            session.resolve(page)
        served = head + held_out
        assert {key for key, count in calls.items() if count} == ran
        assert all(calls[key] == len(served) for key in ran)
        # one pass over each page's text — admission's, for the routing
        # index; an F2 slot's extraction needs none
        assert page_reads == [page.doc_id for page in served]
        prepared = session._prepared[base.query_name]
        assert prepared.context.n_pages == (len(served) if function == "F8"
                                            else 0)
        whole = pipeline.extract_block(
            NameCollection(query_name=base.query_name, pages=head))
        got = prepared.incremental.indexed_features()
        for index, (page, features) in enumerate(zip(served, got)):
            if index >= len(head):
                whole = pipeline.extract_block(NameCollection(
                    query_name=base.query_name, pages=served[:index + 1]))
            assert features.reads is not None
            assert_narrowed(features, whole[page.doc_id])

    def test_a_slot_that_reads_no_tfidf_never_folds(self, fitted_model,
                                                    consulting, pipeline,
                                                    split_block,
                                                    block_features, calls,
                                                    page_reads):
        """Pages that joined with precomputed features are caught up on
        only for the TF-IDF statistics; an F5 slot has none."""
        base, _, held_out = split_block
        session = ResolutionSession(consulting(fitted_model, "F5"),
                                    pipeline=pipeline)
        for index, page in enumerate(held_out):
            features = ({page.doc_id: block_features[page.doc_id]}
                        if index % 2 else None)
            session.resolve(page, features=features)
        assert page_reads == [page.doc_id for page in held_out]
        assert calls["observe"] == calls["count_terms"] == 0
        assert calls["extract_tokens"] == len(held_out[::2])

    def test_raw_pages_resolve_like_whole_features(self, fitted_model,
                                                   consulting, pipeline,
                                                   split_block):
        """Narrowing changes what is extracted, never an assignment."""
        base, _, held_out = split_block
        pages = list(base.pages)[:8] + held_out
        for function in ("F10", "F6", "F4", "F2"):
            model = consulting(fitted_model, function)
            raw = ResolutionSession(model, pipeline=pipeline)
            whole = ResolutionSession(model)
            for index, page in enumerate(pages):
                in_block = pipeline.extract_block(NameCollection(
                    query_name=base.query_name, pages=pages[:index + 1]))
                assert raw.resolve(page) == whole.resolve(
                    page, features={page.doc_id: in_block[page.doc_id]})
            assert raw.clusters(base.query_name) == whole.clusters(
                base.query_name)

