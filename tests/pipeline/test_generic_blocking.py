"""End-to-end generic blocking: an arbitrary registered blocker drives
fit, predict, serving and the session — candidate masks included.
"""

import json
import logging
from dataclasses import replace

import pytest

from repro.blocking.base import (
    Blocker,
    BlockingResult,
    block_collection,
    pairs_within,
)
from repro.blocking.token_blocking import TokenBlocker
from repro.core.config import ResolverConfig
from repro.core.registry import BLOCKERS, register_blocker
from repro.core.resolver import EntityResolver
from repro.corpus.datasets import www05_like
from repro.extraction.tokenizer import page_tokens
from repro.pipeline.session import ResolutionSession
from repro.runtime.executor import executor_for_workers
from repro.serving.engine import ServingEngine


@pytest.fixture(scope="module")
def dataset():
    return www05_like(seed=5, pages_per_name=12,
                      names=["William Cohen", "Adam Cheyer"])


class TestBlockerRegistry:
    def test_builtins_registered(self):
        for name in ("query_name", "token", "sorted_neighborhood"):
            assert name in BLOCKERS

    def test_config_validates_blocker(self):
        ResolverConfig(blocker="token")  # valid
        with pytest.raises(ValueError, match="known blockers"):
            ResolverConfig(blocker="no_such_blocker")

    def test_blocker_round_trips_through_config_payload(self):
        config = ResolverConfig(blocker="token")
        payload = config.to_dict()
        assert payload["blocker"] == "token"
        assert ResolverConfig.from_dict(payload).blocker == "token"
        # Pre-blocker payloads default to the paper's scheme.
        del payload["blocker"]
        assert ResolverConfig.from_dict(payload).blocker == "query_name"

    def test_custom_blocker_registers_and_drives_blocking(self, dataset):
        @register_blocker("per_person_test", replace=True)
        class PerPersonBlocker(Blocker):
            """Oracle blocker: candidates = true co-referent pairs."""

            name = "per_person_test"

            def block(self, pages):
                page_list = list(pages)
                by_person = {}
                for page in page_list:
                    by_person.setdefault(page.person_id, []).append(
                        page.doc_id)
                result = BlockingResult(pages=page_list)
                for ids in by_person.values():
                    result.candidate_pairs.update(pairs_within(ids))
                return result

        blocks, masks = block_collection(dataset, "per_person_test")
        # The oracle blocker yields one component per real person.
        n_persons = len({page.person_id for page in dataset.all_pages()})
        assert len(blocks) == n_persons
        for block in blocks:
            mask = masks[block.query_name]
            assert len(mask) == len(block) * (len(block) - 1) // 2


class TestQueryNamePathUnchanged:
    def test_default_blocker_emits_dense_per_name_blocks(self, dataset):
        blocks, masks = block_collection(dataset,
                                         ResolverConfig().blocker)
        assert [block.query_name for block in blocks] == \
            dataset.query_names()
        assert masks == {}


class TestBlockCollection:
    def test_unknown_blocker_rejected(self, dataset):
        with pytest.raises(ValueError, match="known blockers"):
            block_collection(dataset, "no_such_blocker")

    @pytest.mark.parametrize("blocker", ["token", "sorted_neighborhood"])
    def test_generic_blocks_partition_the_pages(self, dataset, blocker):
        """Every page lands in exactly one block, and a block's mask
        pairs only its own pages."""
        blocks, masks = block_collection(dataset, blocker)
        placed = [page.doc_id for block in blocks for page in block.pages]
        assert sorted(placed) == sorted(
            page.doc_id for page in dataset.all_pages())
        assert len(set(placed)) == len(placed)
        for block in blocks:
            members = {page.doc_id for page in block.pages}
            assert all(left in members and right in members
                       for left, right in masks[block.query_name])


class TestGenericFitPredict:
    @pytest.fixture(scope="class")
    def token_model(self, dataset):
        return EntityResolver(ResolverConfig(blocker="token")).fit(
            dataset, training_seed=0)

    def test_fit_produces_synthetic_blocks(self, token_model):
        assert token_model.block_names()
        assert all(name.startswith("~block:")
                   for name in token_model.block_names())

    def test_parallel_fit_is_identical(self, dataset, token_model):
        parallel = EntityResolver(ResolverConfig(blocker="token")).fit(
            dataset, training_seed=0, executor=executor_for_workers(2))
        serial_payload = {name: fitted.to_dict()
                          for name, fitted in token_model.blocks.items()}
        parallel_payload = {name: fitted.to_dict()
                            for name, fitted in parallel.blocks.items()}
        assert json.dumps(serial_payload, sort_keys=True) \
            == json.dumps(parallel_payload, sort_keys=True)

    def test_evaluate_re_blocks_and_scores(self, dataset, token_model):
        resolution = token_model.evaluate_collection(dataset)
        assert [entry.query_name for entry in resolution.blocks] \
            == token_model.block_names()
        assert 0.0 <= resolution.mean_report().f1 <= 1.0

    def test_serial_and_parallel_serving_agree(self, dataset, token_model):
        def clusterings(executor):
            resolution = token_model.evaluate_collection(dataset,
                                                         executor=executor)
            return [sorted(tuple(sorted(cluster))
                           for cluster in entry.predicted)
                    for entry in resolution.blocks]

        assert clusterings(executor_for_workers(1)) \
            == clusterings(executor_for_workers(2))

    def test_save_load_round_trip_keeps_blocker(self, dataset, token_model,
                                                tmp_path):
        path = tmp_path / "token_model.json"
        token_model.save(path)
        from repro.core.model import ResolverModel

        loaded = ResolverModel.load(path)
        assert loaded.config.blocker == "token"
        resolution = loaded.evaluate_collection(dataset)
        reference = token_model.evaluate_collection(dataset)
        assert [sorted(tuple(sorted(c)) for c in entry.predicted)
                for entry in resolution.blocks] \
            == [sorted(tuple(sorted(c)) for c in entry.predicted)
                for entry in reference.blocks]

    def test_generic_blocks_carry_masks(self, dataset):
        config = ResolverConfig(blocker="token")
        blocks, masks = block_collection(dataset, config.blocker)
        assert masks.keys() == {block.query_name for block in blocks}
        total_candidates = sum(len(mask) for mask in masks.values())
        assert total_candidates > 0
        # Masked graphs downstream carry candidate edges only: RunStats
        # pair accounting equals the candidate count per function.
        resolver = EntityResolver(config)
        model = resolver.fit(dataset, training_seed=0)
        n_functions = len(config.function_names)
        assert model.fit_stats.pairs_scored \
            == total_candidates * n_functions


class TestSessionRouting:
    def test_nameless_pages_route_through_token_index(self, dataset):
        model = EntityResolver(ResolverConfig()).fit(dataset,
                                                     training_seed=0)
        pipeline = EntityResolver().pipeline_for(dataset)
        session = ResolutionSession(model, pipeline=pipeline)
        block = dataset.collections[0]
        pages = list(block.pages)
        session.resolve(pages[:-1])
        nameless = replace(pages[-1], query_name="")
        assignment = session.resolve(nameless)[0]
        assert assignment.doc_id == nameless.doc_id
        assert session.stats.routed_pages == 1
        # The routed page landed in the block it shares tokens with.
        assert nameless.doc_id in {
            doc_id for cluster in session.clusters(block.query_name)
            for doc_id in cluster}

    def test_nameless_page_is_tokenised_once_per_request(self, dataset,
                                                         page_reads):
        """Admission reads a nameless raw page's text once — routing, the
        index and extraction all work from that pass, in the session and
        behind the engine.  The route first indexes the named pages
        queued before it (their second read: the queue keeps no tokens),
        and the index ends up as if the page had arrived named."""
        model = EntityResolver(ResolverConfig()).fit(dataset,
                                                     training_seed=0)
        pipeline = EntityResolver().pipeline_for(dataset)
        block = dataset.collections[0]
        pages = list(block.pages)
        nameless = replace(pages[-1], query_name="")
        named = ResolutionSession(model, pipeline=pipeline)
        named.resolve(pages)
        for front in (ResolutionSession(model, pipeline=pipeline),
                      ServingEngine(model, pipeline=pipeline)):
            front.resolve(pages[:-1])
            del page_reads[:]
            front.resolve(nameless)
            assert page_reads == [nameless.doc_id] + [
                page.doc_id for page in pages[:-1]]
            session = (front.snapshot.session
                       if isinstance(front, ServingEngine) else front)
            assert session.routing_keys() == named.routing_keys()

    def test_boilerplate_stop_keys_do_not_vote(self, dataset):
        """A key shared by (more than max_block_fraction of) all indexed
        names is boilerplate: it must not route a nameless page to the
        lexicographically first name."""
        model = EntityResolver(ResolverConfig()).fit(dataset,
                                                     training_seed=0)
        pipeline = EntityResolver().pipeline_for(dataset)
        session = ResolutionSession(model, pipeline=pipeline)
        for block in dataset.collections:
            boilerplated = [replace(page, text=f"Megacorp {page.text}")
                            for page in block.pages]
            session.resolve(boilerplated)
        orphan = replace(dataset.collections[0].pages[0],
                         doc_id="orphan/1", query_name="",
                         title="", text="Megacorp")
        with pytest.raises(KeyError, match="no query name"):
            session.resolve(orphan)

    def test_token_index_evicted_with_lru_blocks(self, dataset):
        model = EntityResolver(ResolverConfig()).fit(dataset,
                                                     training_seed=0)
        pipeline = EntityResolver().pipeline_for(dataset)
        session = ResolutionSession(model, pipeline=pipeline, max_blocks=1)
        first, *rest = dataset.collections
        pages = list(first.pages)
        session.resolve(pages[:-1])
        # A nameless route indexes the block, so its eviction must
        # unindex it.
        session.resolve(replace(pages[-1], query_name=""))
        for block in rest:
            session.resolve(list(block.pages))
        assert session.stats.evicted_blocks >= 1
        # Only the surviving prepared block may hold index entries.
        index = session.routing_keys()
        assert set(index) == set(session.prepared_names())
        assert all(index.values())

    def test_unroutable_nameless_page_raises_keyerror(self, dataset):
        model = EntityResolver(ResolverConfig()).fit(dataset,
                                                     training_seed=0)
        pipeline = EntityResolver().pipeline_for(dataset)
        session = ResolutionSession(model, pipeline=pipeline)
        orphan = replace(dataset.collections[0].pages[0],
                         doc_id="orphan/0", query_name="",
                         title="", text="nothing shared here at all")
        with pytest.raises(KeyError, match="no query name"):
            session.resolve(orphan)


class TestOnDemandIndex:
    """Named traffic queues its pages; the first nameless route indexes
    them — and only the pages of names still prepared — and from then on
    admission indexes every page.  Every page here carries its features,
    so only routing and indexing read text."""

    @pytest.fixture(scope="class")
    def model(self, dataset):
        return EntityResolver(ResolverConfig()).fit(dataset, training_seed=0)

    @pytest.fixture(scope="class")
    def served(self, dataset, model):
        """A session factory and every page's features."""
        pipeline = EntityResolver().pipeline_for(dataset)
        features = {}
        for block in dataset:
            features.update(pipeline.extract_block(block))

        def session(**kwargs):
            return ResolutionSession(model, pipeline=pipeline, **kwargs)
        return session, features

    @staticmethod
    def keys(*pages):
        blocker = TokenBlocker()
        return set().union(*(blocker.token_keys(page_tokens(page))
                             for page in pages))

    def test_a_nameless_route_reads_the_queue_once(self, dataset, served,
                                                   page_reads):
        session, features = served
        session = session()
        pages = list(dataset.collections[0].pages)
        named, first, second = pages[:4], pages[4], pages[5]
        for page in named:
            session.resolve(page, features=features)
        assert page_reads == []
        session.resolve(replace(first, query_name=""), features=features)
        assert page_reads == [first.doc_id] + [page.doc_id for page in named]
        del page_reads[:]
        session.resolve(replace(second, query_name=""), features=features)
        assert page_reads == [second.doc_id]

    def test_after_a_nameless_route_admission_indexes_every_page(
            self, dataset, served, page_reads):
        """Once a session has routed a nameless page it reads and indexes
        each named page at admission, so no queue builds up for the
        next route to read."""
        session, features = served
        session = session()
        pages = list(dataset.collections[0].pages)
        session.resolve(pages[0], features=features)
        session.resolve(replace(pages[1], query_name=""), features=features)
        del page_reads[:]
        for page in pages[2:5]:
            session.resolve(page, features=features)
        assert page_reads == [page.doc_id for page in pages[2:5]]
        assert session.routing_keys() == {
            pages[0].query_name: frozenset(self.keys(*pages[:5]))}
        del page_reads[:]
        session.resolve(replace(pages[5], query_name=""), features=features)
        assert page_reads == [pages[5].doc_id]

    def test_an_evicted_names_queue_is_never_read(self, dataset, served,
                                                  page_reads):
        session, features = served
        session = session(max_blocks=1)
        gone, kept = (list(block.pages) for block in dataset.collections)
        session.resolve(gone[:3], features=features)
        session.resolve(kept[:3], features=features)  # evicts ``gone``
        assert page_reads == []
        nameless = replace(kept[3], query_name="")
        (assignment,) = session.resolve(nameless, features=features)
        assert page_reads == [nameless.doc_id] + [
            page.doc_id for page in kept[:3]]
        assert set(session.routing_keys()) == {kept[0].query_name}
        assert assignment.doc_id == nameless.doc_id

    def test_one_debug_event_per_token_vote(self, dataset, served,
                                            caplog):
        caplog.set_level(logging.DEBUG, logger="repro.pipeline.session")
        session, features = served
        session = session()
        pages = list(dataset.collections[0].pages)
        name = pages[0].query_name
        named, first, second = pages[:3], pages[3], pages[4]
        for page in named:
            session.resolve(page, features=features)
        for page in (first, second):
            session.resolve(replace(page, query_name=""), features=features)
        events = [record for record in caplog.records
                  if record.name == "repro.pipeline.session"]
        assert [record.args for record in events] == [
            {"doc_id": first.doc_id, "query_name": name,
             "votes": len(self.keys(first) & self.keys(*named)),
             "candidates": [name], "indexed": 3},
            {"doc_id": second.doc_id, "query_name": name,
             "votes": len(self.keys(second) & self.keys(*named, first)),
             "candidates": [name], "indexed": 0},
        ]
        assert {record.levelno for record in events} == {logging.DEBUG}
        # silent by default: the library installs no handler
        assert not logging.getLogger("repro.pipeline.session").handlers
