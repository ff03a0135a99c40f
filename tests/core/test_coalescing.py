"""IncrementalResolver.score_burst — bit-identity with sequential adds.

A burst's contract is tolerance-zero: feeding its rectangle into
``add_page(..., burst=...)`` must reproduce, to the last bit, the
scores, assignments and partitions of adding the same pages one at a
time with the scalar scorers — on every scoring backend.  On ``numpy``
the resident side comes from the block's resident record (interned
columns, values and moments kept per page), so these tests also pin
that the record never changes a bit: across the whole battery, both
incremental combiners, burst sizes, index sizes, degenerate inputs, a
page that fails mid-burst, eviction and a model swap.
"""

from __future__ import annotations

import struct
from collections import Counter
from dataclasses import replace

import pytest

from repro.core.config import ResolverConfig
from repro.core.incremental import IncrementalResolver
from repro.core.model import ResolverModel
from repro.core.resolver import EntityResolver
from repro.corpus.datasets import www05_like
from repro.corpus.documents import NameCollection
from repro.graph.entity_graph import pair_key
from repro.pipeline.session import ResolutionSession
from repro.serving import ServingEngine, verify_serial_equivalence
from repro.similarity.extended import SUBSET_I14
from repro.similarity.functions import function_by_name

EXACT_BACKENDS = ("python", "numpy")
#: (k new pages, n indexed pages) of every burst the battery test runs.
BURSTS = [(k, n) for k in (1, 2, 8) for n in (0, 1, 32)]
NAME = "William Cohen"


def bits(values) -> list[bytes]:
    return [struct.pack("<d", value) for value in values]


@pytest.fixture(scope="module")
def corpus():
    """40 pages of one name, whole features, in page order, with the
    true person of each."""
    collection = www05_like(seed=5, pages_per_name=40, names=[NAME])
    block = collection.collections[0]
    pipeline = EntityResolver(ResolverConfig()).pipeline_for(collection)
    features = pipeline.extract_block(block)
    truth = {page.doc_id: page.person_id for page in block.pages}
    return block, [features[page.doc_id] for page in block.pages], truth


@pytest.fixture(scope="module")
def battery_models(corpus):
    """A model over the whole F1–F14 battery per incremental combiner."""
    block, pages, _ = corpus
    features = {page.doc_id: page for page in pages}
    return {combiner: EntityResolver(ResolverConfig(
        function_names=SUBSET_I14, combiner=combiner,
        backend="python")).fit(block, training_seed=0, features=features)
        for combiner in ("best_graph", "weighted_average")}


def resolver(model, backend, residents, truth):
    """A resolver indexing ``residents``, one entity per true person."""
    clusters: dict[str, list[str]] = {}
    for page in residents:
        clusters.setdefault(truth[page.doc_id], []).append(page.doc_id)
    return IncrementalResolver.from_fitted(
        replace(model.config, backend=backend), model.blocks[NAME],
        {page.doc_id: page for page in residents}, list(clusters.values()))


def assert_burst_is_the_scalar_chain(model, backend, residents, arriving,
                                     truth):
    """The burst's rows are the scalar scores, bit for bit, and adding
    through the burst — or page by page on ``backend`` — assigns exactly
    like the scalar chain."""
    reference = resolver(model, "python", residents, truth)
    coalesced = resolver(model, backend, residents, truth)
    single = resolver(model, backend, residents, truth)
    burst = coalesced.score_burst(arriving)
    for name in coalesced.scoring_function_names():
        function = function_by_name(name)
        for index, page in enumerate(arriving):
            expected = [function(page, other)
                        for other in residents + arriving[:index]]
            assert (bits(burst.rectangle.rows[name][index])
                    == bits(expected)), (name, index)
    for page in arriving:
        expected = reference.add_page(page)
        # Dataclass equality covers doc id, entity id, novelty flag and
        # the link probability as an exact float.
        assert coalesced.add_page(page, burst=burst) == expected
        assert single.add_page(page) == expected
    assert coalesced.clusters() == single.clusters() == reference.clusters()


@pytest.fixture(scope="module", params=EXACT_BACKENDS)
def backend_model(request, small_block, block_features):
    """A model fitted once per scoring backend."""
    return EntityResolver(ResolverConfig(backend=request.param)).fit(
        small_block, training_seed=0, features=block_features)


@pytest.fixture()
def incrementals(backend_model, small_block, block_features):
    """Two identically bootstrapped fresh resolvers on one backend."""
    base = NameCollection(query_name=small_block.query_name,
                          pages=list(small_block.pages)[:20])
    feats = {p.doc_id: block_features[p.doc_id] for p in base.pages}
    return [IncrementalResolver.from_model(backend_model, base, feats)
            for _ in range(2)]


@pytest.fixture(scope="module")
def tail_features(small_block, block_features):
    return [block_features[p.doc_id] for p in list(small_block.pages)[20:26]]


class TestBitIdentity:
    def test_coalesced_adds_match_sequential_adds(self, incrementals,
                                                  tail_features):
        sequential, coalesced = incrementals
        burst = coalesced.score_burst(tail_features)
        assert burst is not None
        for features in tail_features:
            a = sequential.add_page(features)
            b = coalesced.add_page(features, burst=burst)
            assert a == b, (a, b)
        assert sequential.clusters() == coalesced.clusters()

    def test_scores_cover_exactly_the_sequential_pairs(self, incrementals,
                                                       tail_features):
        """Row ``i`` scores new page ``i`` against every indexed page,
        in add order, then the new pages before it."""
        incremental = incrementals[1]
        existing = incremental.indexed_features()
        burst = incremental.score_burst(tail_features)
        for name in incremental.scoring_function_names():
            function = function_by_name(name)
            for index, page in enumerate(tail_features):
                others = existing + tail_features[:index]
                assert (bits(burst.rectangle.rows[name][index])
                        == bits(function(page, other) for other in others))

    @pytest.mark.parametrize("backend", EXACT_BACKENDS)
    @pytest.mark.parametrize("consulted", [*SUBSET_I14, "weighted_average"])
    def test_record_path_equals_sequential_scalar_adds(
            self, consulted, backend, battery_models, consulting, corpus):
        """Every function of the battery, alone under best-graph and all
        together under weighted averaging, for k ∈ {1, 2, 8} new pages
        on n ∈ {0, 1, 32} indexed ones."""
        _, pages, truth = corpus
        model = (battery_models["weighted_average"]
                 if consulted == "weighted_average"
                 else consulting(battery_models["best_graph"], consulted))
        for k, n in BURSTS:
            assert_burst_is_the_scalar_chain(model, backend, pages[:n],
                                             pages[n:n + k], truth)


class TestEdgeCases:
    @pytest.fixture(scope="class")
    def model(self, battery_models):
        return battery_models["weighted_average"]

    @pytest.mark.parametrize("backend", EXACT_BACKENDS)
    def test_empty_vectors_and_sets(self, backend, model, corpus):
        _, pages, truth = corpus

        def emptied(page):
            return replace(page, tfidf={}, concept_vector={},
                           concept_set=frozenset(), organizations=Counter(),
                           other_persons=Counter(), locations=Counter())

        pages = [emptied(page) if index % 3 == 0 else page
                 for index, page in enumerate(pages[:14])]
        assert_burst_is_the_scalar_chain(model, backend, pages[:10],
                                         pages[10:], truth)
        assert_burst_is_the_scalar_chain(model, backend, pages[:10],
                                         [emptied(page)
                                          for page in pages[10:]], truth)

    @pytest.mark.parametrize("backend", EXACT_BACKENDS)
    def test_an_all_hapax_burst(self, backend, model, corpus):
        """No key of a new page occurs on any other page."""
        _, pages, truth = corpus

        def hapax(page):
            def own(keys):
                return {f"{page.doc_id}/{key}": value
                        for key, value in keys.items()}
            return replace(
                page, tfidf=own(page.tfidf),
                concept_vector=own(page.concept_vector),
                concept_set=frozenset(f"{page.doc_id}/{concept}"
                                      for concept in page.concept_set),
                organizations=Counter(own(page.organizations)),
                other_persons=Counter(own(page.other_persons)),
                locations=Counter(own(page.locations)))

        assert_burst_is_the_scalar_chain(
            model, backend, pages[:12], [hapax(page) for page in pages[12:18]],
            truth)

    @pytest.mark.parametrize("backend", EXACT_BACKENDS)
    def test_a_page_that_never_joins_then_its_retry(self, backend, model,
                                                    corpus):
        """Later pages of the burst drop the failed page's column; its
        retry is scored afresh — the chain without it, then it."""
        _, pages, truth = corpus
        residents, arriving = pages[:12], pages[12:16]
        reference = resolver(model, "python", residents, truth)
        served = resolver(model, backend, residents, truth)
        burst = served.score_burst(arriving)
        for page in arriving[1:]:
            # the burst's scores line up with the index the page meets
            scores = burst.scores(burst.position(page.doc_id, len(
                served.indexed_features())))
            for name, row in scores.items():
                function = function_by_name(name)
                assert bits(row) == bits(
                    function(page, other)
                    for other in served.indexed_features()), name
            assert served.add_page(page, burst=burst) \
                == reference.add_page(page)
        assert served.add_page(arriving[0], burst=burst) \
            == reference.add_page(arriving[0])
        assert served.clusters() == reference.clusters()


class TestFallbacks:
    def test_empty_batch_returns_none(self, incrementals):
        assert incrementals[1].score_burst([]) is None

    def test_duplicate_within_batch_returns_none(self, incrementals,
                                                 tail_features):
        batch = [tail_features[0], tail_features[1], tail_features[0]]
        assert incrementals[1].score_burst(batch) is None

    def test_duplicate_against_index_returns_none(self, incrementals,
                                                  tail_features,
                                                  block_features,
                                                  small_block):
        indexed = block_features[list(small_block.pages)[0].doc_id]
        batch = [tail_features[0], indexed]
        assert incrementals[1].score_burst(batch) is None

    def test_a_burst_out_of_line_is_scored_afresh(self, incrementals,
                                                  tail_features):
        """Adding a burst's pages out of order, or after another page
        joined, falls back to scoring the page alone."""
        sequential, coalesced = incrementals
        burst = coalesced.score_burst(tail_features[:3])
        for page in (tail_features[2], tail_features[4], tail_features[0],
                     tail_features[1]):
            assert coalesced.add_page(page, burst=burst) \
                == sequential.add_page(page)


class TestServedStreams:
    """Bursts through engines on ``python`` (no record) and ``numpy``
    (a record per served block): the same answers, through a unit that
    fails mid-burst and its retry, evict → re-bootstrap, and a swap."""

    @pytest.fixture(scope="class")
    def models(self, small_dataset, pipeline):
        return [EntityResolver(ResolverConfig()).fit(
            small_dataset, training_seed=seed, pipeline=pipeline)
            for seed in (0, 1)]

    @pytest.fixture(scope="class")
    def all_features(self, small_dataset, pipeline):
        features = {}
        for block in small_dataset:
            features.update(pipeline.extract_block(block))
        return features

    @staticmethod
    def on(backend, model, pipeline):
        return ResolverModel(replace(model.config, backend=backend),
                             model.blocks, pipeline=pipeline)

    def stream(self, backend, models, pipeline, small_dataset, features):
        """Assignments and final partitions of one fixed stream."""
        first, second = small_dataset.collections[:2]
        engine = ServingEngine(self.on(backend, models[0], pipeline),
                               pipeline=pipeline, max_blocks=1,
                               record_journal=True)
        out = []

        def burst(pages):
            futures = [engine.submit(page, features=features)
                       for page in pages]
            engine.flush()
            out.extend(future.result(timeout=5) for future in futures)

        out.append(engine.resolve(first.pages[:8], features=features))
        burst(first.pages[8:12])
        out.append(engine.resolve(second.pages[:3], features=features))
        burst(first.pages[12:16])  # evicted: re-bootstraps, record anew
        engine.swap(self.on(backend, models[1], pipeline))
        burst(first.pages[16:20])
        burst(second.pages[3:7])
        out.append(engine.resolve(first.pages[20], features=features))
        report = verify_serial_equivalence(engine)
        assert report["identical"], report["diffs"]
        assert engine.stats.coalesced_batches == 4
        return out, engine.clusters(first.query_name)

    def test_record_serves_like_the_scalar_path(self, models, pipeline,
                                                small_dataset,
                                                all_features):
        python, numpy = (self.stream(backend, models, pipeline,
                                     small_dataset, all_features)
                         for backend in EXACT_BACKENDS)
        assert python == numpy

    @pytest.mark.parametrize("backend", EXACT_BACKENDS)
    def test_a_unit_failing_mid_burst_then_its_retry(
            self, backend, models, pipeline, small_block, all_features,
            monkeypatch):
        pages = list(small_block.pages)
        failing = {pages[8].doc_id}
        add_page = IncrementalResolver.add_page

        def flaky(self, features, burst=None):
            if features.doc_id in failing:
                failing.discard(features.doc_id)
                raise RuntimeError("injected")
            return add_page(self, features, burst=burst)

        monkeypatch.setattr(IncrementalResolver, "add_page", flaky)
        engine = ServingEngine(self.on(backend, models[0], pipeline),
                               pipeline=pipeline, record_journal=True)
        engine.resolve(pages[:8], features=all_features)
        futures = [engine.submit(page, features=all_features)
                   for page in pages[8:12]]
        engine.flush()
        assert engine.stats.coalesced_batches == 1
        assert [future.exception(timeout=5) is not None
                for future in futures] == [True, False, False, False]
        retried = engine.resolve(pages[8], features=all_features)

        # The scalar chain without the failed page, then its retry.
        reference = ResolutionSession(
            self.on("python", models[0], pipeline), pipeline=pipeline)
        reference.resolve(pages[:8], features=all_features)
        expected = [reference.resolve(page, features=all_features)
                    for page in (*pages[9:12], pages[8])]
        served = [future.result() for future in futures
                  if future.exception() is None]
        assert served + [retried] == expected
        assert (engine.clusters(small_block.query_name)
                == reference.clusters(small_block.query_name))


class TestSweepCost:
    """What a burst builds and reads, by count — no wall clock.

    ``k`` new pages on an ``n``-page index score a ``k``-row rectangle:
    the numpy block state must not grow an ``(n + k)²`` Gram matrix,
    densify the residents over the whole block vocabulary, or walk a
    page's dicts again once it has joined.
    """

    @pytest.fixture()
    def weighted(self, small_block, block_features):
        """Weighted averaging over the functions whose inputs a record
        keeps (F2, F3 and F7 read the pages, through the masked sweep)."""
        model = EntityResolver(ResolverConfig(
            backend="numpy", combiner="weighted_average",
            function_names=("F1", "F4", "F5", "F6", "F8", "F9", "F10"))).fit(
                small_block, training_seed=0, features=block_features)
        return model.config, model.blocks[small_block.query_name]

    def test_burst_state_is_a_k_row_rectangle(self, weighted, small_block,
                                              block_features, tail_features,
                                              monkeypatch):
        pytest.importorskip("numpy")
        import repro.similarity.backends as backends
        from repro.similarity import batch

        config, fitted = weighted
        resident = {p.doc_id: block_features[p.doc_id]
                    for p in list(small_block.pages)[:20]}
        incremental = IncrementalResolver.from_fitted(
            config, fitted, resident, [[doc_id] for doc_id in resident])

        states = []
        build = batch.BlockState.burst.__func__

        def spy(cls, *args, **kwargs):
            states.append(build(cls, *args, **kwargs))
            return states[-1]

        keys = []
        for module in (backends, batch):
            monkeypatch.setattr(module, "pair_key", lambda *pair: keys.append(
                pair) or pair_key(*pair))
        monkeypatch.setattr(batch.BlockState, "burst", classmethod(spy))
        burst = incremental.score_burst(tail_features)
        [state] = states
        n, k = len(resident), len(tail_features)

        assert state.left.size == k
        assert state.right.size == n + k - 1
        assert keys == []  # the layout is known: no pair keys, no mask
        assert all(len(rows) == k and [len(row) for row in rows]
                   == list(range(n, n + k))
                   for rows in burst.rectangle.rows.values())

        # The weighted-average combiner consults the TF-IDF measures, so
        # the burst built their shared Gram block and family — over the
        # burst's own keys.
        assert state._dots["tfidf"].shape == (k, n + k - 1)
        family = state._families["tfidf"]
        block_vocabulary = set().union(
            *(page.tfidf for page in resident.values()),
            *(page.tfidf for page in tail_features))
        burst_vocabulary = set().union(
            *(page.tfidf for page in tail_features))
        assert family.values.shape == (n + k, len(burst_vocabulary))
        assert len(burst_vocabulary) < len(block_vocabulary)

    def test_f13_burst_reads_the_record(self, small_block, block_features,
                                        monkeypatch):
        """F13's entity counts come from the resident record like every
        other kernel family's: a k = 8 burst on a whole-battery model
        (less the page readers F2, F3, F7) sweeps no masked block."""
        pytest.importorskip("numpy")
        from repro.similarity.backends import NumpyBackend

        names = tuple(name for name in SUBSET_I14
                      if name not in ("F2", "F3", "F7"))
        model = EntityResolver(ResolverConfig(
            backend="numpy", combiner="weighted_average",
            function_names=names)).fit(small_block, training_seed=0,
                                       features=block_features)
        pages = [block_features[page.doc_id] for page in small_block.pages]
        resident = {page.doc_id: page for page in pages[:20]}
        incremental = IncrementalResolver.from_fitted(
            model.config, model.blocks[small_block.query_name], resident,
            [[doc_id] for doc_id in resident])
        assert "F13" in incremental.scoring_function_names()

        swept = []
        block_scores = NumpyBackend.block_scores

        def spy(self, ids, features, functions, mask=None):
            swept.append([function.name for function in functions])
            return block_scores(self, ids, features, functions, mask=mask)

        monkeypatch.setattr(NumpyBackend, "block_scores", spy)
        burst = incremental.score_burst(pages[20:28])
        assert swept == []
        assert [len(row) for row in burst.rectangle.rows["F13"]] \
            == list(range(20, 28))

    def test_a_joined_page_is_never_walked_again(self, weighted, small_block,
                                                 block_features, recording):
        """Each page's ``tfidf`` dict is read once — when the record is
        built for a resident, when it is scored for a new page — however
        many bursts and single adds follow."""
        pytest.importorskip("numpy")
        config, fitted = weighted
        reads: Counter = Counter()

        class Tally:
            def __init__(self, doc_id):
                self.doc_id = doc_id

            def add(self, name):
                reads[self.doc_id, name] += 1

        pages = [recording(block_features[page.doc_id], Tally(page.doc_id))
                 for page in small_block.pages]
        resident = {page.doc_id: page for page in pages[:6]}
        incremental = IncrementalResolver.from_fitted(
            config, fitted, resident, [[doc_id] for doc_id in resident])
        for start in (6, 14):
            burst = incremental.score_burst(pages[start:start + 8])
            for page in pages[start:start + 8]:
                incremental.add_page(page, burst=burst)
        for page in pages[22:]:
            incremental.add_page(page)
        assert {doc_id: reads[doc_id, "tfidf"]
                for doc_id in (page.doc_id for page in pages)} \
            == {page.doc_id: 1 for page in pages}
