"""Metamorphic properties: page order and doc-id spelling are not inputs.

Under both combiners and all three clusterers, at tolerance zero:

* permuting the pages inside each block leaves ``predict`` with a fixed
  model identical — partition, combined edges, combined link
  probabilities (by pair), chosen layer, threshold, diagnostics and
  layer accuracies.  ``fit`` is left out: the training sample is drawn
  by page *position* (``repro.ml.sampling``), so a permutation changes
  which pairs are sampled until that sampler draws by doc-id rank;
* an **order-preserving** doc-id renaming leaves ``fit`` (every fitted
  number) and ``predict`` identical up to the renaming.  Arbitrary
  renamings are out of scope: pair keys, star centers and correlation
  clustering's node sequence are ordered by doc id, so a renaming that
  reorders ids may legitimately break a tie the other way.

The serving path (``IncrementalResolver``, ``ResolutionSession``) is
order-dependent by design — a page joins the clusters that exist when it
arrives — so it is not covered here.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

from repro.core.config import ResolverConfig
from repro.core.resolver import EntityResolver
from repro.corpus.datasets import WWW05_NAMES, www05_like
from repro.corpus.documents import DocumentCollection, NameCollection
from repro.graph.entity_graph import pair_key

CONFIGS = [(combiner, clusterer)
           for combiner in ("best_graph", "weighted_average")
           for clusterer in ("transitive", "star", "correlation")]

N_NAMES = 3
PAGES_PER_NAME = 24

#: A failing example is reported as drawn: shrinking a permutation of
#: 72 pages re-runs six predicts per step and takes minutes.
EXAMPLES = dict(deadline=None, phases=[Phase.explicit, Phase.generate],
                suppress_health_check=[HealthCheck.function_scoped_fixture])


@pytest.fixture(scope="module")
def dataset() -> DocumentCollection:
    return www05_like(seed=11, pages_per_name=PAGES_PER_NAME,
                      names=WWW05_NAMES[:N_NAMES])


@pytest.fixture(scope="module")
def models(dataset) -> dict:
    return {config: fit(dataset, config) for config in CONFIGS}


@pytest.fixture(scope="module")
def reference(dataset, models) -> dict:
    return {config: models[config].predict(dataset) for config in CONFIGS}


def fit(dataset: DocumentCollection, config: tuple[str, str]):
    combiner, clusterer = config
    return EntityResolver(ResolverConfig(
        combiner=combiner, clusterer=clusterer)).fit(dataset,
                                                     training_seed=0)


def fitted_state(model) -> dict:
    return {name: json.dumps(fitted.to_dict(), sort_keys=True)
            for name, fitted in model.blocks.items()}


def decided(prediction, rename=lambda doc_id: doc_id) -> dict:
    """Everything a predict pass decides, per name, in bits, with every
    doc id passed through ``rename``."""
    def pair(left, right):
        return pair_key(rename(left), rename(right))

    return {
        block.query_name: {
            "clusters": sorted(sorted(map(rename, cluster))
                               for cluster in block.predicted),
            "edges": sorted(pair(*edge)
                            for edge in block.combination.graph.edges),
            "probabilities": sorted(
                (pair(*edge), float(value).hex())
                for edge, value in block.combination.probabilities.pairs()),
            "chosen_layer": block.combination.chosen_layer,
            "threshold": block.combination.threshold,
            "diagnostics": sorted(block.combination.diagnostics.items()),
            "layer_accuracies": sorted(
                (label, float(value).hex())
                for label, value in block.layer_accuracies.items()),
        }
        for block in prediction.blocks
    }


def rebuilt(dataset: DocumentCollection, pages_of) -> DocumentCollection:
    """``dataset`` with each block's pages replaced by ``pages_of(block)``."""
    return DocumentCollection(
        name=dataset.name,
        collections=[NameCollection(query_name=block.query_name,
                                    pages=pages_of(block))
                     for block in dataset.collections],
        metadata=dict(dataset.metadata))


@settings(max_examples=10, **EXAMPLES)
@given(data=st.data())
def test_permuting_pages_leaves_predict_unchanged(dataset, models,
                                                  reference, data):
    permuted = rebuilt(dataset, lambda block: [
        block.pages[index] for index in data.draw(
            st.permutations(range(len(block))), label=block.query_name)])
    for config in CONFIGS:
        assert decided(models[config].predict(permuted)) \
            == decided(reference[config]), config


#: Fresh doc ids, distinct; sorted and handed out in the old ids' order,
#: so the renaming preserves order.
_NEW_IDS = st.lists(st.text("ab/01", min_size=1, max_size=8),
                    min_size=N_NAMES * PAGES_PER_NAME,
                    max_size=N_NAMES * PAGES_PER_NAME, unique=True)


@settings(max_examples=5, **EXAMPLES)
@given(new_ids=_NEW_IDS)
def test_order_preserving_renaming_changes_nothing_but_ids(
        dataset, models, reference, new_ids):
    old_ids = sorted(page.doc_id for block in dataset.collections
                     for page in block.pages)
    renaming = dict(zip(old_ids, sorted(new_ids)))
    renamed = rebuilt(dataset, lambda block: [
        replace(page, doc_id=renaming[page.doc_id]) for page in block.pages])
    for config in CONFIGS:
        model = fit(renamed, config)
        assert fitted_state(model) == fitted_state(models[config]), config
        assert decided(model.predict(renamed)) == decided(
            reference[config], renaming.get), config
