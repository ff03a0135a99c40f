"""Nameless-page routing is a function of the admitted pages alone.

A session indexes no named page's blocking keys until a nameless page
first needs the index; that route indexes the queued pages, and from
then on admission indexes every page.  Whatever the interleaving — raw
named pages, feature-carrying named pages, nameless pages, several
names through a small LRU, boilerplate keys every name shares — every
routing outcome (a name or a ``KeyError``) and the final index equal a
reference built here from the ``token_keys`` of the pages admitted and
not evicted since, as if each page were indexed the moment it was
admitted.  Tolerance zero.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blocking.token_blocking import TokenBlocker
from repro.core.config import ResolverConfig
from repro.core.resolver import EntityResolver
from repro.extraction.tokenizer import page_tokens
from repro.pipeline.session import ResolutionSession

MAX_BLOCKS = 2
#: On every pool page: a key that turns stop-key once two names hold it.
BOILERPLATE = "Megacorp"


@pytest.fixture(scope="module")
def served(small_dataset, pipeline):
    """A fitted model over three names, the page pool the interleavings
    draw from (boilerplate on every page), and each page's features."""
    model = EntityResolver(ResolverConfig()).fit(
        small_dataset, training_seed=0, pipeline=pipeline)
    pool, features = [], {}
    for block in small_dataset:
        pages = [replace(page, text=f"{BOILERPLATE} {page.text}")
                 for page in block.pages]
        features.update(pipeline.extract_block(replace(block, pages=pages)))
        pool.extend(pages)
    return model, features, pool


class Reference:
    """Eager admission, written out: an LRU of names and each surviving
    name's blocking keys, indexed the moment a page is admitted."""

    def __init__(self):
        self.blocker = TokenBlocker()
        self.lru: OrderedDict[str, set[str]] = OrderedDict()

    def route(self, page) -> str | None:
        if page.query_name:
            return page.query_name
        stop = max(1, int(self.blocker.max_block_fraction * len(self.lru)))
        votes: dict[str, int] = {}
        for key in self.keys(page):
            names = [name for name, keys in self.lru.items() if key in keys]
            if len(names) <= stop:
                for name in names:
                    votes[name] = votes.get(name, 0) + 1
        if not votes:
            return None
        return min(votes, key=lambda name: (-votes[name], name))

    def admit(self, request) -> list[str] | None:
        """The routed name of each page, or ``None`` for a rejected
        request (which leaves no trace)."""
        routed = [self.route(page) for page in request]
        if None in routed:
            return None
        for name in dict.fromkeys(routed):
            if name in self.lru:
                self.lru.move_to_end(name)
            else:
                self.lru[name] = set()
                while len(self.lru) > MAX_BLOCKS:
                    self.lru.popitem(last=False)
            for page, to in zip(request, routed):
                if to == name:
                    self.lru[name] |= self.keys(page)
        return routed

    def keys(self, page) -> set[str]:
        return self.blocker.token_keys(page_tokens(page))


KINDS = ("raw", "carried", "nameless", "boilerplate")


@st.composite
def interleavings(draw, pool_size: int):
    """Requests of one to three pages, each page drawn once from the pool
    and sent raw, with its features, without its name, or as a nameless
    page holding nothing but the boilerplate."""
    picks = draw(st.lists(
        st.tuples(st.integers(0, pool_size - 1), st.sampled_from(KINDS)),
        min_size=6, max_size=16, unique_by=lambda pick: pick[0]))
    sizes = draw(st.lists(st.integers(1, 3), min_size=len(picks),
                          max_size=len(picks)))
    requests, start = [], 0
    for size in sizes:
        if start < len(picks):
            requests.append(picks[start:start + size])
        start += size
    return requests


class TestRoutingEquivalence:
    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_routes_match_eager_indexing(self, served, pipeline, data):
        model, features, pool = served
        requests = data.draw(interleavings(len(pool)))
        session = ResolutionSession(model, pipeline=pipeline,
                                    max_blocks=MAX_BLOCKS)
        reference = Reference()
        for request in requests:
            pages, carried = [], {}
            for index, kind in request:
                page = pool[index]
                if kind == "nameless":
                    page = replace(page, query_name="")
                if kind == "boilerplate":
                    page = replace(page, doc_id=f"boilerplate/{index}",
                                   query_name="", title="",
                                   text=BOILERPLATE)
                if kind == "carried":
                    carried[page.doc_id] = features[page.doc_id]
                pages.append(page)
            expected = reference.admit(pages)
            if expected is None:
                with pytest.raises(KeyError, match="no query name"):
                    session.admit(pages, carried)
                continue
            units = session.admit(pages, carried)
            routed = {page.doc_id: unit.query_name
                      for unit in units for page in unit.pages}
            assert [routed[page.doc_id] for page in pages] == expected
            for unit in units:
                (outcome,) = session.process([unit]).outcomes
                assert not isinstance(outcome, Exception), outcome
        assert session.prepared_names() == list(reference.lru)
        assert session.routing_keys() == {
            name: frozenset(keys) for name, keys in reference.lru.items()}
