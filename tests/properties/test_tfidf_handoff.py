"""The TF-IDF block pass's rows stack the same bytes as the dict walk.

From :data:`~repro.extraction.tfidf.BLOCK_PASS_MIN_DOCUMENTS` pages an
``extract_block`` call weighs its TF-IDF in one columnar pass and hands
the pass's flat rows back on the mapping it returns
(:class:`~repro.extraction.features.BlockFeatures`).  A numpy
:class:`~repro.similarity.batch.BlockState` made from that mapping
takes its ``tfidf`` record from the rows (:meth:`~repro.similarity.
batch._FamilyRecord.hand`) for the pages whose ``tfidf`` is one of the
pass's own dicts, and walks the dicts otherwise.  Either way the
family — presence, values and every moment — must be the same bytes,
on the square and under a mask; tolerance is zero.

The set and counter records walk their pending pages together
(:meth:`~repro.similarity.batch._FamilyRecord._walk`); every kind's
fold is pinned against one :meth:`~repro.similarity.batch.
_FamilyRecord.entry` per page.
"""

from __future__ import annotations

import copy
import logging
import pickle
import struct
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import ResolverConfig
from repro.core.resolver import EntityResolver
from repro.corpus.datasets import custom_dataset
from repro.corpus.documents import NameCollection, WebPage
from repro.corpus.generator import GeneratorConfig
from repro.extraction.features import BlockFeatures, PageFeatures
from repro.extraction.tfidf import BLOCK_PASS_MIN_DOCUMENTS, TfidfRows
from repro.folds import left_sum
from repro.graph.entity_graph import pair_key

np = pytest.importorskip("numpy")
batch = pytest.importorskip("repro.similarity.batch")

K = BLOCK_PASS_MIN_DOCUMENTS
FIELDS = ("presence", "values", "nnz", "sums", "norms", "squared_norms")
TFIDF = next(kernel.recorded for kernel in batch._KERNELS.values()
             if kernel.recorded and kernel.recorded[0] == "tfidf")
SPECS = {kernel.recorded[0]: kernel.recorded
         for kernel in batch._KERNELS.values() if kernel.recorded}


def generated(seed: int, pages: int):
    config = GeneratorConfig(pages_per_name=pages, max_clusters=3,
                             vocabulary_seed=7)
    collection = custom_dataset(["Ada Wong"], seed=seed, config=config,
                                cluster_counts={"Ada Wong": 2})
    pipeline = EntityResolver(ResolverConfig()).pipeline_for(collection)
    return collection.collections[0], pipeline


def assert_same_family(first, other):
    for name in FIELDS:
        left, right = getattr(first, name), getattr(other, name)
        if left is None:
            assert right is None, name
            continue
        assert (left.dtype, left.shape) == (right.dtype, right.shape), name
        assert left.tobytes() == right.tobytes(), name


def routes(caplog) -> list[tuple[int, str]]:
    return [(record.args["rows"], record.args["route"])
            for record in caplog.records
            if record.name == "repro.similarity.batch"]


def handed_and_walked(ids, features, mask=None):
    """The ``tfidf`` family of ``features`` and of a plain copy."""
    handed = batch.BlockState(ids, features, mask).family(*TFIDF)
    walked = batch.BlockState(ids, dict(features), mask).family(*TFIDF)
    return handed, walked


def drawn_mask(draw, ids):
    pairs = [pair_key(left, right)
             for index, left in enumerate(ids) for right in ids[index + 1:]]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs),
                         max_size=len(pairs)))
    return frozenset(pair for pair, kept in zip(pairs, keep) if kept)


@st.composite
def block_inputs(draw):
    """A block of K - 1, K or K + 1 pages and a mask over it."""
    seed = draw(st.integers(0, 10_000))
    pages = draw(st.sampled_from([K - 1, K, K + 1]))
    block, pipeline = generated(seed, pages)
    return block, pipeline.extract_block(block), drawn_mask(
        draw, block.page_ids())


class TestHandOff:
    @settings(max_examples=12, deadline=None)
    @given(block_inputs())
    def test_rows_stack_the_walked_bytes(self, inputs):
        """The square and a mask stack the same bytes from the rows as
        from the dicts; the rows exist exactly when the pass ran."""
        block, features, mask = inputs
        ids = block.page_ids()
        assert isinstance(features, BlockFeatures)
        assert (features.tfidf_rows is not None) == (len(ids) >= K)
        for layout in (None, mask):
            assert_same_family(*handed_and_walked(ids, features, layout))

    @pytest.mark.parametrize("pages", [K - 1, K, K + 1])
    def test_routes(self, pages, caplog):
        """The event names the route and the rows stacked."""
        block, pipeline = generated(5, pages)
        features = pipeline.extract_block(block)
        ids = block.page_ids()
        caplog.set_level(logging.DEBUG, logger="repro.similarity.batch")
        handed_and_walked(ids, features)
        route = "handed rows" if pages >= K else "dict walk"
        assert routes(caplog) == [(pages, route), (pages, "dict walk")]
        # A mask stacks only the rows in a candidate pair.
        caplog.clear()
        handed_and_walked(ids, features,
                          frozenset({pair_key(ids[2], ids[5])}))
        assert routes(caplog) == [(2, route), (2, "dict walk")]

    def test_silent_at_the_default_level(self, caplog):
        block, pipeline = generated(5, K)
        caplog.set_level(logging.WARNING)
        handed_and_walked(block.page_ids(), pipeline.extract_block(block))
        assert routes(caplog) == []

    def test_context_grown_before_the_call(self, caplog):
        """Rows cover only the call's pages, weighed over the context's
        earlier ones; a mapping with the earlier pages added is walked
        for them."""
        block, pipeline = generated(9, K + 5)
        context = pipeline.block_context(block.query_name)
        earlier = pipeline.extract_block(
            NameCollection(block.query_name, pages=block.pages[:5]),
            context)
        later = NameCollection(block.query_name, pages=block.pages[5:])
        features = pipeline.extract_block(later, context)
        assert earlier.tfidf_rows is None
        assert len(features.tfidf_rows.vectors) == K
        caplog.set_level(logging.DEBUG, logger="repro.similarity.batch")
        assert_same_family(*handed_and_walked(later.page_ids(), features))
        assert routes(caplog)[0] == (K, "handed rows")
        features.update(earlier)
        caplog.clear()
        assert_same_family(*handed_and_walked(block.page_ids(), features))
        assert routes(caplog) == [(K + 5, "dict walk")] * 2

    def test_replaced_page_falls_back_to_the_walk(self, caplog):
        """An equal but distinct dict, or different values, on one page:
        the family is the walk of what the mapping holds now."""
        block, pipeline = generated(3, K + 1)
        ids = block.page_ids()
        features = pipeline.extract_block(block)
        page = features[ids[4]]
        caplog.set_level(logging.DEBUG, logger="repro.similarity.batch")
        for tfidf in (dict(page.tfidf),
                      {key: value / 2 for key, value in page.tfidf.items()}):
            features[page.doc_id] = replace(page, tfidf=tfidf)
            caplog.clear()
            handed, walked = handed_and_walked(ids, features)
            assert routes(caplog) == [(K + 1, "dict walk")] * 2
            assert_same_family(handed, walked)
        # Unreplaced pages under a mask still take the rows.
        caplog.clear()
        assert_same_family(*handed_and_walked(
            ids, features, frozenset({pair_key(ids[0], ids[1])})))
        assert routes(caplog)[0] == (2, "handed rows")

    def test_pages_with_no_kept_terms(self):
        """A page of stopwords and short tokens has an empty row; a
        block of them has no terms at all."""
        block, pipeline = generated(11, K)
        blank = WebPage(doc_id="blank", query_name=block.query_name,
                        url="http://a.org/blank", title="the",
                        text="of and to in a x y z")
        mixed = NameCollection(block.query_name,
                               pages=[block.pages[0], blank,
                                      *block.pages[1:]])
        features = pipeline.extract_block(mixed)
        assert features["blank"].tfidf == {}
        assert_same_family(*handed_and_walked(mixed.page_ids(), features))
        empty = NameCollection(block.query_name, pages=[
            replace(blank, doc_id=f"blank/{index}") for index in range(K)])
        features = pipeline.extract_block(empty)
        assert features.tfidf_rows.terms == []
        handed, walked = handed_and_walked(empty.page_ids(), features)
        assert handed.values.shape == (K, 0)
        assert_same_family(handed, walked)

    def test_rows_in_any_order(self):
        """``hand`` takes any pick of rows, repeats included, in the
        order given — the walk of those pages in that order."""
        block, pipeline = generated(2, K + 1)
        features = pipeline.extract_block(block)
        pages = list(features.values())
        picks = [list(range(K + 1))[::-1], [3, 0, 7], [5, 5, 1], []]
        for picked in picks:
            record = batch._FamilyRecord(*TFIDF[1:])
            record.hand(features.tfidf_rows, picked)
            walked = batch._FamilyRecord(*TFIDF[1:],
                                         [pages[row] for row in picked])
            assert_same_family(record.family(None), walked.family(None))
            assert sorted(record.keys) == sorted(walked.keys)

    def test_a_handed_record_interns_on_demand(self):
        """A handed record's keys are interned only when a page is
        walked into it, and then as a walked record's would be."""
        block, pipeline = generated(2, K)
        features = pipeline.extract_block(block)
        record = batch._FamilyRecord(*TFIDF[1:])
        record.hand(features.tfidf_rows, list(range(K)))
        assert record._column_of is None
        extra = PageFeatures(doc_id="extra", tfidf={"~new": 1.0})
        columns, values, _ = record.entry(extra)
        assert record.keys[columns[0]] == "~new" and values == [1.0]
        assert record.column_of == {key: index for index, key
                                    in enumerate(record.keys)}

    def test_mapping_copies_and_pickles_are_plain(self):
        block, pipeline = generated(4, K)
        features = pipeline.extract_block(block)
        for twin in (pickle.loads(pickle.dumps(features)),
                     copy.copy(features), features.copy()):
            assert type(twin) is dict
            assert twin == features


def bits(value: float) -> bytes:
    return struct.pack("<d", value)


class TestNegativeZero:
    """``left_sum`` starts from the integer 0, so a row of ``-0.0``
    sums to ``0.0`` — through the walk and through the rows."""

    VECTORS = [{"a": -0.0}, {"a": -0.0, "b": -0.0}, {},
               {"a": 0.25, "b": -0.0, "c": -0.25}]

    def rows(self):
        terms = ["a", "b", "c"]
        return TfidfRows(
            terms, np.asarray(list(map(len, self.VECTORS)), dtype=np.int64),
            np.asarray([terms.index(key) for vector in self.VECTORS
                        for key in vector], dtype=np.int64),
            np.asarray([value for vector in self.VECTORS
                        for value in vector.values()]),
            self.VECTORS)

    def test_rows_and_walk_agree(self):
        pages = [PageFeatures(doc_id=str(index), tfidf=vector)
                 for index, vector in enumerate(self.VECTORS)]
        record = batch._FamilyRecord(*TFIDF[1:])
        record.hand(self.rows(), list(range(len(pages))))
        walked = batch._FamilyRecord(*TFIDF[1:], pages)
        handed = record.family(None)
        assert_same_family(handed, walked.family(None))
        want = [left_sum(vector.values()) for vector in self.VECTORS]
        assert list(map(bits, handed.sums.tolist())) == list(map(bits, want))
        assert bits(handed.sums[0]) == bits(0.0)


@st.composite
def page_sets(draw):
    """Pages of a small generated block, some replaced by hand-built
    bundles with empty fields, and a ``-0.0`` in a vector."""
    seed = draw(st.integers(0, 10_000))
    block, pipeline = generated(seed, draw(st.integers(2, 6)))
    pages = list(pipeline.extract_block(block).values())
    pages.append(PageFeatures(doc_id="zero", concept_vector={"a": -0.0},
                              tfidf={"a": -0.0, "b": 0.5}))
    pages.append(PageFeatures(doc_id="empty"))
    return draw(st.permutations(pages))


class TestBlockFold:
    @settings(max_examples=20, deadline=None)
    @given(page_sets())
    def test_fold_equals_one_entry_per_page(self, pages):
        """Every kind's record, folded from its pages, holds the rows,
        keys and moments of one ``entry`` per page."""
        for name, (_, kind, extract) in SPECS.items():
            folded = batch._FamilyRecord(kind, extract, pages)
            folded._fold()
            # Pages that join with their entries are folded as given.
            reference = batch._FamilyRecord(kind, extract)
            for page in pages:
                reference.append(page, reference.entry(page))
            reference._fold()
            assert sorted(folded.keys, key=repr) == sorted(reference.keys,
                                                          key=repr)
            # Column ids may differ (a set interns in its own order);
            # the keys they name may not.
            assert ([folded.keys[column] for column in folded.columns]
                    == [reference.keys[column]
                        for column in reference.columns]), name
            assert folded.owners.tolist() == reference.owners.tolist(), name
            if reference.values is None:
                assert folded.values is None
            else:
                assert folded.values.dtype == reference.values.dtype
                assert (folded.values.tobytes()
                        == reference.values.tobytes()), name
            assert (folded.moments.tobytes()
                    == reference.moments.tobytes()), name
            assert_same_family(folded.family(None), reference.family(None))
