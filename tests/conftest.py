"""Shared fixtures.

The expensive artifacts (a small generated dataset, its extracted features
and similarity graphs) are session-scoped: similarity values do not depend
on training seeds, so every test can reuse them.
"""

from __future__ import annotations

import os
import subprocess
import sys
from collections.abc import Sequence
from dataclasses import fields, replace
from pathlib import Path

import pytest

import repro
import repro.blocking.token_blocking as token_blocking
import repro.extraction.pipeline as extraction_pipeline
import repro.extraction.tokenizer as tokenizer
import repro.pipeline.session as pipeline_session
from repro.core.model import ResolverModel
from repro.corpus.datasets import www05_like
from repro.corpus.generator import CorpusGenerator, GeneratorConfig
from repro.corpus.vocabulary import build_vocabulary
from repro.extraction.features import PageFeatures
from repro.extraction.pipeline import ExtractionPipeline
from repro.runtime.batch import batched_similarity_graphs
from repro.similarity.functions import default_functions


@pytest.fixture(scope="session")
def vocabulary():
    """A small, fixed vocabulary."""
    return build_vocabulary(seed=7)


@pytest.fixture(scope="session")
def small_dataset():
    """Three names, 30 pages each — fast but structurally realistic."""
    return www05_like(
        seed=11,
        pages_per_name=30,
        names=["William Cohen", "Adam Cheyer", "Lynn Voss"],
    )


@pytest.fixture(scope="session")
def small_block(small_dataset):
    """The Cohen block of the small dataset."""
    return small_dataset.by_name("William Cohen")


@pytest.fixture(scope="session")
def pipeline(small_dataset, vocabulary):
    """Extraction pipeline matching the small dataset's vocabulary."""
    return ExtractionPipeline.from_vocabulary(
        vocabulary, query_names=small_dataset.query_names())


@pytest.fixture(scope="session")
def block_features(pipeline, small_block):
    """Extracted features for the Cohen block."""
    return pipeline.extract_block(small_block)


@pytest.fixture(scope="session")
def block_graphs(small_block, block_features):
    """Weighted similarity graphs (all ten functions) for the Cohen block."""
    return batched_similarity_graphs(
        small_block, block_features, default_functions())


@pytest.fixture(scope="session")
def fit_evaluate():
    """Algorithm 1 on fully labeled data: ``fit``, then ``evaluate`` the
    same data with the same inputs (``graphs=`` hands the very object to
    both passes)."""
    def run(resolver, data, training_seed=0, **inputs):
        model = resolver.fit(data, training_seed=training_seed, **inputs)
        return model.evaluate(data, **inputs)

    return run


@pytest.fixture(scope="session")
def under_hash_seeds():
    """``run(script, seeds)``: the set of what ``python -c script`` prints
    under each string-hash seed in ``seeds``, one process per seed, with
    this ``repro`` on the path.  One element means the output does not
    depend on the hash seed.  The only place a test sets
    ``PYTHONHASHSEED``: fixed, distinct seeds make the comparison the
    same on every run instead of a random draw."""
    source_root = str(Path(repro.__file__).resolve().parents[1])

    def run(script: str, seeds: Sequence[int],
            timeout: float = 120) -> set[str]:
        assert len(set(seeds)) == len(seeds) > 1, seeds
        outputs = set()
        for seed in seeds:
            env = {**os.environ, "PYTHONHASHSEED": str(seed),
                   "PYTHONPATH": source_root}
            outputs.add(subprocess.run(
                [sys.executable, "-c", script], env=env, check=True,
                capture_output=True, text=True, timeout=timeout).stdout)
        return outputs

    return run


@pytest.fixture(scope="session")
def tiny_generator():
    """A generator with a tiny page budget for structure-level tests."""
    return CorpusGenerator(GeneratorConfig(pages_per_name=12, max_clusters=4))


@pytest.fixture()
def page_reads(monkeypatch):
    """Doc ids of the pages anything tokenises (``page_tokens`` calls from
    admission, blocking or extraction, and extraction's
    ``page_lowered_tokens``), in order, from the moment the fixture is
    requested."""
    reads: list[str] = []

    def counting(reader):
        def read(page):
            reads.append(page.doc_id)
            return reader(page)
        return read

    page_tokens = counting(tokenizer.page_tokens)
    for module in (extraction_pipeline, pipeline_session, token_blocking):
        monkeypatch.setattr(module, "page_tokens", page_tokens)
    monkeypatch.setattr(extraction_pipeline, "page_lowered_tokens",
                        counting(tokenizer.page_lowered_tokens))
    return reads


@pytest.fixture(scope="session")
def assert_narrowed():
    """``check(got, whole)``: a bundle extracted for a read set equals the
    whole extraction of the same page on the fields it records
    (mapping order included) and holds the empty default elsewhere."""
    def check(got: PageFeatures, whole: PageFeatures) -> None:
        assert whole.reads is None
        blank = PageFeatures(doc_id=whole.doc_id)
        for spec in fields(PageFeatures):
            if spec.name == "reads":
                continue
            held = (got.reads is None or spec.name in got.reads
                    or spec.name == "doc_id")
            if spec.name == "n_tokens":  # set iff the page was tokenised
                held = got.reads != frozenset({"url"})
            value = getattr(got, spec.name)
            expected = getattr(whole if held else blank, spec.name)
            assert value == expected, (got.doc_id, spec.name)
            if hasattr(value, "items"):
                assert list(value.items()) == list(expected.items()), (
                    got.doc_id, spec.name)
    return check


class Recording:
    """A ``PageFeatures`` stand-in that reports every attribute read to
    ``touched.add(name)``."""

    __slots__ = ("_page", "_touched")

    def __init__(self, page: PageFeatures, touched):
        object.__setattr__(self, "_page", page)
        object.__setattr__(self, "_touched", touched)

    def __getattr__(self, name):
        self._touched.add(name)
        return getattr(self._page, name)


@pytest.fixture(scope="session")
def recording():
    """``Recording(page, touched)``: a stand-in logging what scoring
    reads of ``page``."""
    return Recording


@pytest.fixture(scope="session")
def consulting():
    """``build(model, "F5")``: a copy of a best-graph ``model`` whose every
    block consults the named function (its first fitted layer wins)."""
    def build(model: ResolverModel, function_name: str) -> ResolverModel:
        blocks = {}
        for name, fitted in model.blocks.items():
            winner = next(layer.label for layer in fitted.layers
                          if layer.function_name == function_name)
            blocks[name] = replace(
                fitted, combiner_params={**fitted.combiner_params,
                                         "chosen_layer": winner})
        return ResolverModel(model.config, blocks, pipeline=model.pipeline)
    return build
