"""Metamorphic property: the order of a collection's blocks is not an input.

Algorithm 1 is defined per block, so permuting the blocks of a dataset
must leave ``fit`` + ``evaluate`` identical at tolerance zero: every
name's fitted state, every partition and per-block report, and the bits
of the macro-averaged report (``mean_report`` folds with ``math.fsum``).
"""

from __future__ import annotations

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import ResolverConfig
from repro.core.resolver import EntityResolver
from repro.corpus.datasets import WWW05_NAMES, www05_like
from repro.corpus.documents import DocumentCollection

COMBINERS = ("best_graph", "weighted_average")
N_NAMES = 5


@pytest.fixture(scope="module")
def dataset() -> DocumentCollection:
    return www05_like(seed=7, pages_per_name=12, names=WWW05_NAMES[:N_NAMES])


def fit_evaluate(dataset: DocumentCollection, combiner: str) -> dict:
    """Everything a fit + evaluate pass decides, per name, in bits."""
    model = EntityResolver(ResolverConfig(combiner=combiner)).fit(
        dataset, training_seed=0)
    resolution = model.evaluate(dataset)
    return {
        "fitted": {name: json.dumps(fitted.to_dict(), sort_keys=True)
                   for name, fitted in model.blocks.items()},
        "blocks": {block.query_name: (block.predicted,
                                      report_bits(block.report))
                   for block in resolution.blocks},
        "mean": report_bits(resolution.mean_report()),
    }


def report_bits(report) -> tuple[str, ...]:
    return tuple(float(value).hex() for value in report.as_dict().values())


@pytest.fixture(scope="module")
def reference(dataset) -> dict:
    return {combiner: fit_evaluate(dataset, combiner)
            for combiner in COMBINERS}


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(order=st.permutations(range(N_NAMES)))
def test_permuting_blocks_changes_nothing(dataset, reference, order):
    permuted = DocumentCollection(
        name=dataset.name,
        collections=[dataset.collections[index] for index in order],
        metadata=dict(dataset.metadata))
    for combiner in COMBINERS:
        assert fit_evaluate(permuted, combiner) == reference[combiner]
