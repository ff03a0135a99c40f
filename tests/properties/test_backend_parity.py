"""Cross-backend parity: numpy and python scoring are bit-identical.

The ``numpy`` backend's contract (:mod:`repro.similarity.backends`) is
*bit* equality with the scalar reference, not closeness — tolerance is
zero everywhere in this suite.  Blocks come from the seeded corpus
generator (:mod:`repro.corpus.generator`), so every shrunk
counterexample is a reproducible (seed, pages, noise) triple.
"""

from __future__ import annotations

import random
import struct
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import ResolverConfig
from repro.core.model import ResolverModel
from repro.core.resolver import EntityResolver
from repro.corpus.datasets import custom_dataset, www05_like
from repro.corpus.documents import NameCollection
from repro.corpus.generator import GeneratorConfig
from repro.extraction.features import PageFeatures
from repro.graph.entity_graph import pair_key
from repro.runtime.batch import batched_similarity_graphs
from repro.serving import ServingEngine, verify_serial_equivalence
from repro.similarity.backends import NumpyBackend, PythonBackend
import repro.similarity.backends as backends
import repro.similarity.batch as batch
from repro.similarity.batch import _edit_distances
from repro.similarity.extended import full_battery
from repro.similarity.functions import default_functions
from repro.similarity.strings import levenshtein
from repro.similarity.urls import url_similarity

PYTHON = PythonBackend()
NUMPY = NumpyBackend()


def bits(value: float) -> bytes:
    """The exact IEEE-754 representation (0.0 == -0.0 must not hide)."""
    return struct.pack("<d", value)


def block_scores(backend, ids, features, functions, mask=None):
    """Every function's graph as ``{pair_key: score}``, in pair order."""
    return {name: dict(graph.pairs()) for name, graph in
            backend.block_graphs(ids, features, functions,
                                 mask=mask).items()}


def assert_weights_bit_identical(reference, candidate):
    assert list(reference.keys()) == list(candidate.keys())
    for key, value in reference.items():
        assert bits(value) == bits(candidate[key]), \
            (key, value, candidate[key])


def assert_scores_bit_identical(ids, features, mask=None):
    """The whole F1–F14 battery, ``python`` ≡ ``numpy`` byte for byte."""
    battery = full_battery()
    reference = block_scores(PYTHON, ids, features, battery, mask=mask)
    candidate = block_scores(NUMPY, ids, features, battery, mask=mask)
    assert reference.keys() == candidate.keys()
    for name in reference:
        assert_weights_bit_identical(reference[name], candidate[name])


def generated_block(seed: int, pages: int, alpha: float):
    config = GeneratorConfig(pages_per_name=pages, max_clusters=3,
                             cluster_size_alpha=alpha, vocabulary_seed=7)
    collection = custom_dataset(["Ada Wong"], seed=seed, config=config,
                                cluster_counts={"Ada Wong": 2})
    block = collection.collections[0]
    pipeline = EntityResolver(ResolverConfig()).pipeline_for(collection)
    return block, pipeline.extract_block(block)


block_inputs = st.tuples(st.integers(0, 10_000), st.integers(2, 12),
                         st.floats(1.0, 2.5))


class TestScoreMatrixParity:
    @settings(max_examples=15, deadline=None)
    @given(block_inputs)
    def test_full_battery_matrices_bit_identical(self, inputs):
        seed, pages, alpha = inputs
        block, features = generated_block(seed, pages, alpha)
        assert_scores_bit_identical(block.page_ids(), features)

    @settings(max_examples=10, deadline=None)
    @given(block_inputs)
    def test_graphs_bit_identical(self, inputs):
        seed, pages, alpha = inputs
        block, features = generated_block(seed, pages, alpha)
        functions = default_functions()
        reference = batched_similarity_graphs(block, features, functions,
                                              backend="python")
        candidate = batched_similarity_graphs(block, features, functions,
                                              backend="numpy")
        assert list(reference) == list(candidate) == [
            function.name for function in functions]
        for name in reference:
            assert reference[name].nodes == candidate[name].nodes
            assert_weights_bit_identical(reference[name].weights,
                                         candidate[name].weights)

    @settings(max_examples=10, deadline=None)
    @given(block_inputs)
    def test_one_vs_many_bit_identical(self, inputs):
        seed, pages, alpha = inputs
        block, features = generated_block(seed, pages, alpha)
        pages_list = [features[doc_id] for doc_id in block.page_ids()]
        new, others = pages_list[:1], pages_list[1:]
        battery = full_battery()
        reference = PYTHON.rectangle(battery, others, new).rows
        candidate = NUMPY.rectangle(battery, others, new).rows
        for function in battery:
            assert [bits(value) for value in reference[function.name][0]] \
                == [bits(value) for value in candidate[function.name][0]], \
                function.name


class TestBenchmarkShapes:
    """The benchmark's deep shapes: 52-page blocks and bursts of 8 onto
    100 residents, where a row holds dozens of shared terms and a long
    dot fold would show any reassociation in its last bits."""

    @pytest.fixture(scope="class")
    def deep(self):
        """One 108-page name, extracted, with a model fitted on its
        first 30 pages that consults every function."""
        collection = www05_like(seed=5, pages_per_name=108,
                                names=["William Cohen"])
        block = collection.collections[0]
        pipeline = EntityResolver(ResolverConfig()).pipeline_for(collection)
        features = pipeline.extract_block(block)
        head = NameCollection(block.query_name, block.pages[:30])
        model = EntityResolver(ResolverConfig(
            combiner="weighted_average", backend="python")).fit(
            head, training_seed=0, features=features)
        return block, features, model

    def test_a_52_page_block_dense_and_masked(self, deep):
        block, features, _ = deep
        ids = block.page_ids()[:52]
        assert_scores_bit_identical(ids, features)
        rng = random.Random(0)
        mask = frozenset(pair_key(left, right)
                         for i, left in enumerate(ids)
                         for right in ids[i + 1:] if rng.random() < 0.4)
        assert_scores_bit_identical(ids, features, mask)

    def test_a_burst_of_8_onto_100_residents(self, deep):
        block, features, model = deep
        residents, arriving = block.pages[:100], block.pages[100:108]

        def serve(backend):
            engine = ServingEngine(
                ResolverModel(replace(model.config, backend=backend),
                              model.blocks),
                record_journal=True)
            bootstrap = engine.resolve(residents, features=features)
            futures = [engine.submit(page, features=features)
                       for page in arriving]
            engine.flush()
            assert engine.stats.coalesced_batches == 1
            report = verify_serial_equivalence(engine)
            assert report["identical"], report["diffs"]
            return (bootstrap, [future.result() for future in futures],
                    engine.clusters(block.query_name))

        assert serve("python") == serve("numpy")


class TestOddPages:
    """A page with empty title and text, a page with no URL and a
    ~100k-token page in one block: both backends fit and evaluate it,
    to the same bits."""

    @pytest.fixture(scope="class")
    def odd(self):
        config = GeneratorConfig(pages_per_name=12, max_clusters=3,
                                 vocabulary_seed=7)
        collection = custom_dataset(["Ada Wong"], seed=3, config=config,
                                    cluster_counts={"Ada Wong": 3})
        pages = collection.collections[0].pages
        pages[1] = replace(pages[1], title="", text="")
        pages[2] = replace(pages[2], url="")
        words = pages[3].text.split()
        pages[3] = replace(pages[3], text=" ".join(
            words * (100_000 // len(words) + 1)))
        return collection

    def test_scores_bit_identical(self, odd):
        block = odd.collections[0]
        pipeline = EntityResolver(ResolverConfig()).pipeline_for(odd)
        features = pipeline.extract_block(block)
        assert features[block.pages[3].doc_id].n_tokens >= 100_000
        assert_scores_bit_identical(block.page_ids(), features)

    def test_fit_and_evaluate_on_both_backends(self, odd):
        def resolve(backend):
            model = EntityResolver(ResolverConfig(backend=backend)).fit(
                odd, training_seed=0)
            entry = model.evaluate_collection(odd).blocks[0]
            return (sorted(tuple(sorted(cluster))
                           for cluster in entry.predicted),
                    bits(entry.report.fp), bits(entry.report.f1))

        assert resolve("python") == resolve("numpy")


class TestClusteringParity:
    @settings(max_examples=6, deadline=None)
    @given(st.integers(0, 1_000), st.integers(4, 10))
    def test_fit_predict_clusterings_identical(self, seed, pages):
        config = GeneratorConfig(pages_per_name=pages, max_clusters=3,
                                 vocabulary_seed=7)
        collection = custom_dataset(["Ada Wong", "Bo Chen"], seed=seed,
                                    config=config)

        def resolve(backend: str):
            resolver_config = ResolverConfig(backend=backend)
            model = EntityResolver(resolver_config).fit(collection,
                                                        training_seed=0)
            resolution = model.evaluate_collection(collection)
            return [
                (entry.query_name,
                 sorted(tuple(sorted(cluster))
                        for cluster in entry.predicted),
                 bits(entry.report.fp), bits(entry.report.f1))
                for entry in resolution.blocks
            ]

        assert resolve("python") == resolve("numpy")


#: Domains that are equal, share a registrable suffix, are empty, lack a
#: dot or are non-ASCII, plus free-form ones that mostly reach
#: ``domain_similarity``'s edit-distance fallback.
_DOMAINS = st.sampled_from([
    "", "example.org", "www.example.org", "people.example.org",
    "EXAMPLE.org", "exämple.org", "例え.jp", "cs.例え.jp", "localhost",
    "cs.cmu.edu", "cmu.edu", "a.b", "a..b", "x.org.",
]) | st.text(alphabet="abé.-", max_size=12)
_URLS = st.one_of(
    st.just(""),
    st.builds("http://{}/{}".format, _DOMAINS,
              st.text(alphabet="ab/.-é09\U0001f600\U00010000\ud800",
                      max_size=70)),
    st.builds("https://{}".format, _DOMAINS))


def assert_distances(strings, first, second):
    """``_edit_distances`` over these lanes equals ``levenshtein``."""
    distances = _edit_distances(strings, np.asarray(first, dtype=np.intp),
                                np.asarray(second, dtype=np.intp))
    assert distances.tolist() == [
        levenshtein(strings[i], strings[j]) for i, j in zip(first, second)]


def record_sweeps(monkeypatch) -> list[tuple[int, int]]:
    """``(lanes, steps)`` of every ``_sweep`` from now on."""
    sweeps: list[tuple[int, int]] = []
    sweep = batch._sweep

    def recording(table, codes, text_start, pattern, pattern_len, text_len):
        sweeps.append((len(text_start), int(text_len[0])))
        return sweep(table, codes, text_start, pattern, pattern_len,
                     text_len)

    monkeypatch.setattr(batch, "_sweep", recording)
    return sweeps


#: Person-name surfaces where the F3 / F7 kernel can break: empty and
#: whitespace-only names, initials against given names, odd casing and
#: non-ASCII, plus free-form ones.
_NAMES = st.sampled_from([
    "", " ", "\t", " \n ", "J. Cohen", "John Cohen", "j. cohen",
    "JOHN cohen", "Cohen", "W. Cohen", "William Cohen", "Jürgen Müller",
    "JÜRGEN müller", "J. Müller", "José Ñúñez", "Ng", "Ada  Wong",
]) | st.text(alphabet="aJc. éÑ\t", max_size=10)

#: A block's names: one name repeats on most pages (``None`` draws it),
#: the rest are drawn freely.
_NAME_BLOCKS = st.tuples(
    _NAMES, st.lists(st.one_of(st.none(), st.none(), _NAMES),
                     min_size=2, max_size=12))


def name_pages(block) -> list[PageFeatures]:
    """Pages whose F3 name is ``block``'s and F7 name the next page's."""
    common, drawn = block
    names = [common if name is None else name for name in drawn]
    return [PageFeatures(doc_id=f"p{index}", most_frequent_name=name,
                         closest_name_to_query=names[index - 1])
            for index, name in enumerate(names)]


def assert_burst_is_a_chain(functions, residents, new):
    """``NUMPY.rectangle`` of ``new`` on ``residents`` — over a resident
    record where the functions read one, and over none — is the scalar
    chain of adds, byte for byte, whatever its size."""
    for record in (NUMPY.resident_record(functions, residents), None):
        with mock.patch.object(backends, "_FEW_CELLS", 0):
            rectangle = NUMPY.rectangle(functions, residents, new, record)
        for function in functions:
            assert [[bits(value) for value in row]
                    for row in rectangle.rows[function.name]] == [
                [bits(function(page, other))
                 for other in residents + new[:index]]
                for index, page in enumerate(new)], function.name


def name_functions(*names: str):
    return [function for function in full_battery()
            if function.name in ("F3", "F7") + names]


class TestBatchedStringKernels:
    """F2's one Myers sweep per block, where it can break: lanes of very
    different lengths, pattern widths at the word's edge, repeated
    strings, and every ``domain_similarity`` case; and F3 / F7's one
    score per distinct name pair, against a chain of scalar calls."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.text(alphabet="ab/.-xz09é\U0001f600\U0010ffff\udc80",
                            max_size=70), max_size=8))
    def test_pairwise_levenshtein_matches_scalar(self, strings):
        first, second = np.triu_indices(len(strings), k=1)
        assert_distances(strings, first.tolist(), second.tolist())
        assert_distances(strings, second.tolist(), first.tolist())

    @pytest.mark.parametrize("lengths", [
        [1, 1, 70], [70, 1, 1], [0, 3, 70, 2, 2], [5, 40, 1, 39, 64, 1],
    ])
    def test_lanes_of_very_different_lengths_share_a_sweep(self, lengths):
        rng = random.Random(len(lengths))
        strings = ["".join(rng.choice("abc/") for _ in range(length))
                   for length in lengths]
        first, second = np.triu_indices(len(strings), k=1)
        assert_distances(strings, first.tolist(), second.tolist())

    @pytest.mark.parametrize("width", [62, 63, 64, 65])
    def test_patterns_at_the_word_edge(self, width):
        rng = random.Random(width)
        pattern = "".join(rng.choice("ab") for _ in range(width))
        texts = [pattern[::-1], pattern + "ab", "b" + pattern[1:],
                 "".join(rng.choice("ab") for _ in range(width + 9)),
                 pattern[:-1] + ("a" if pattern[-1] == "b" else "b")]
        strings = [pattern, *texts]
        lanes = range(1, len(strings))
        assert_distances(strings, [0] * len(texts), list(lanes))
        assert_distances(strings, list(lanes), [0] * len(texts))

    def test_more_lanes_than_one_sweep_takes(self, monkeypatch):
        rng = random.Random(7)
        strings = ["".join(rng.choice("ab/") for _ in range(rng.randint(1, 9)))
                   for _ in range(190)]
        monkeypatch.setattr(batch, "_WORDS", 64)
        sweeps = record_sweeps(monkeypatch)
        first, second = np.triu_indices(len(strings), k=1)
        assert_distances(strings, first.tolist(), second.tolist())
        assert len(sweeps) > 1

    @pytest.mark.parametrize("budget", [None, 2500])
    def test_one_long_path_among_short_ones(self, monkeypatch, budget):
        """A path of over 1 000 characters (a query string is enough)
        shares a block with short ones: every sweep gathers at most the
        word budget — or is one lane — and the distances stay exact."""
        rng = random.Random(11)
        strings = ["/" + "".join(rng.choice("ab/") for _ in
                                 range(rng.randint(0, 12)))
                   for _ in range(60)]
        strings[17] = "/search?q=" + "".join(rng.choice("ab&=")
                                             for _ in range(1200))
        if budget is not None:
            monkeypatch.setattr(batch, "_WORDS", budget)
        sweeps = record_sweeps(monkeypatch)
        first, second = np.triu_indices(len(strings), k=1)
        assert_distances(strings, first.tolist(), second.tolist())
        assert all(lanes * steps <= batch._WORDS or lanes == 1
                   for lanes, steps in sweeps)
        assert max(steps for _, steps in sweeps) > 1000

    def test_repeated_strings(self):
        strings = ["/a/b.html", "/a/b.html", "", "", "/a/c.html",
                   "/a/b.html"]
        first, second = np.triu_indices(len(strings), k=1)
        assert_distances(strings, first.tolist(), second.tolist())
        assert_distances(strings, [0, 2, 4], [0, 2, 4])

    @settings(max_examples=60, deadline=None)
    @given(st.lists(_URLS, min_size=2, max_size=10), st.randoms())
    def test_f2_matches_url_similarity_dense_masked_and_burst(self, urls, rng):
        ids = [f"p{index}" for index in range(len(urls))]
        features = {doc_id: PageFeatures(doc_id=doc_id, url=url)
                    for doc_id, url in zip(ids, urls)}
        f2 = [function for function in default_functions()
              if function.name == "F2"]
        mask = frozenset(pair_key(left, right)
                         for i, left in enumerate(ids)
                         for right in ids[i + 1:] if rng.random() < 0.5)
        for layout in (None, mask):
            scores = block_scores(NUMPY, ids, features, f2,
                                  mask=layout)["F2"]
            expected = [(i, j) for i in range(len(ids))
                        for j in range(i + 1, len(ids))
                        if layout is None
                        or pair_key(ids[i], ids[j]) in layout]
            assert list(scores) == [pair_key(ids[i], ids[j])
                                    for i, j in expected]
            for i, j in expected:
                assert bits(scores[pair_key(ids[i], ids[j])]) == bits(
                    url_similarity(urls[i], urls[j])), (urls[i], urls[j])
        pages = [features[doc_id] for doc_id in ids]
        assert_burst_is_a_chain(f2, pages[:1], pages[1:])

    @settings(max_examples=80, deadline=None)
    @given(_NAME_BLOCKS, st.randoms())
    def test_names_match_scalar_calls_dense_and_masked(self, block, rng):
        pages = name_pages(block)
        ids = [page.doc_id for page in pages]
        features = {page.doc_id: page for page in pages}
        mask = frozenset(pair_key(left, right)
                         for i, left in enumerate(ids)
                         for right in ids[i + 1:] if rng.random() < 0.5)
        functions = name_functions()
        for layout in (None, mask):
            scores = block_scores(NUMPY, ids, features, functions,
                                  mask=layout)
            expected = [(i, j) for i in range(len(ids))
                        for j in range(i + 1, len(ids))
                        if layout is None
                        or pair_key(ids[i], ids[j]) in layout]
            for function in functions:
                assert list(scores[function.name]) == [
                    pair_key(ids[i], ids[j]) for i, j in expected]
                assert [bits(scores[function.name][pair_key(
                    ids[i], ids[j])]) for i, j in expected] == [
                    bits(function(pages[i], pages[j])) for i, j in expected]

    @settings(max_examples=60, deadline=None)
    @given(_NAME_BLOCKS, st.integers(2, 5))
    def test_names_in_a_burst_match_a_chain_of_adds(self, block, burst):
        """A ``rectangle`` burst of new pages — alone, and next to a
        record family (F4) — scores each page on the burst state as its
        single add would, ``function(new, other)``."""
        pages = name_pages(block)
        burst = min(burst, len(pages) - 1)
        residents, new = pages[:-burst], pages[-burst:]
        for functions in (name_functions(), name_functions("F4")):
            assert_burst_is_a_chain(functions, residents, new)
