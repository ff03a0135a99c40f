"""Pinned partitions of the paths the default-config goldens leave open.

``tests/data/golden/similarity_golden.json`` freezes the default
resolution only (``best_graph`` + ``transitive``).  This suite freezes,
on the same golden corpus and under both scoring backends, what every
other graph-consuming path returns:

* the sorted partition of each pairwise baseline;
* the sorted partition of ``combiner="majority"``, ``clusterer="star"``
  and ``clusterer="correlation"`` (fit, then evaluate);
* the ``majority`` combiner's combined link probabilities, as a sorted
  ``(pair, value)`` list.

Everything is computed in-process, so the suite also checks that none
of these paths depends on the string-hash seed.  Regenerate after an
*intentional* change with::

    PYTHONPATH=src python tests/integration/test_paths_pin.py
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
PIN_PATH = REPO_ROOT / "tests" / "data" / "golden" / "paths_golden.json"

_spec = importlib.util.spec_from_file_location(
    "regenerate_goldens", REPO_ROOT / "scripts" / "regenerate_goldens.py")
regenerate_goldens = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regenerate_goldens)

BACKENDS = ("python", "numpy")

#: ``ResolverConfig`` overrides whose fit → evaluate partitions are pinned.
CONFIGS = {
    "majority": {"combiner": "majority"},
    "star": {"clusterer": "star"},
    "correlation": {"clusterer": "correlation"},
}


def _sorted_partition(clusters) -> list[list[str]]:
    return sorted(sorted(cluster) for cluster in clusters)


def build_pins(backend: str) -> dict:
    """Every pinned path's output on the golden corpus, per block."""
    from repro.baselines import (
        AgglomerativeBaseline,
        ClusteringSelectionBaseline,
        DynamicSelectionBaseline,
        MajorityVoteBaseline,
        OracleBestFunctionBaseline,
        TrainedBestFunctionBaseline,
        WeightedVoteBaseline,
    )
    from repro.core.combination import MajorityVoteCombiner
    from repro.core.config import ResolverConfig
    from repro.core.labels import TrainingSample
    from repro.core.resolver import EntityResolver
    from repro.ml.sampling import sample_training_pairs
    from repro.runtime.batch import batched_similarity_graphs
    from repro.similarity.functions import default_functions

    baselines = [
        TrainedBestFunctionBaseline(),
        OracleBestFunctionBaseline(),
        MajorityVoteBaseline(),
        WeightedVoteBaseline(),
        DynamicSelectionBaseline(),
        ClusteringSelectionBaseline(),
        AgglomerativeBaseline(),
    ]
    seed = regenerate_goldens.DATASET["training_seed"]
    collection = regenerate_goldens.golden_collection()
    resolver = EntityResolver(ResolverConfig(backend=backend))
    pipeline = resolver.pipeline_for(collection)

    pins: dict[str, dict] = {block.query_name: {} for block in collection}
    for block in collection:
        graphs = batched_similarity_graphs(
            block, pipeline.extract_block(block), default_functions(),
            backend=backend)
        training = TrainingSample.from_pairs(
            sample_training_pairs(block, fraction=0.1, seed=seed))
        pinned = pins[block.query_name]
        for baseline in baselines:
            pinned[baseline.name] = _sorted_partition(
                baseline.resolve_block(block, graphs, training))
        layers = resolver.build_layers(graphs, training)
        combined = MajorityVoteCombiner().combine(layers, training)
        pinned["majority_probabilities"] = sorted(
            [list(pair), value]
            for pair, value in combined.probabilities.pairs())

    for label, overrides in CONFIGS.items():
        config = ResolverConfig(backend=backend, **overrides)
        model = EntityResolver(config).fit(collection, training_seed=seed)
        for entry in model.evaluate_collection(collection).blocks:
            pins[entry.query_name][label] = _sorted_partition(
                entry.predicted)
    return pins


@pytest.fixture(scope="module")
def pinned():
    assert PIN_PATH.exists(), (
        f"missing pinned fixture {PIN_PATH}; run "
        "PYTHONPATH=src python tests/integration/test_paths_pin.py")
    return json.loads(PIN_PATH.read_text())


@pytest.mark.parametrize("backend", BACKENDS)
def test_every_path_matches_its_pin(pinned, backend):
    if backend == "numpy":
        pytest.importorskip("numpy")
    rebuilt = build_pins(backend)
    assert rebuilt.keys() == pinned.keys()
    for block, paths in pinned.items():
        assert rebuilt[block].keys() == paths.keys(), block
        for path, expected in paths.items():
            assert rebuilt[block][path] == expected, (backend, block, path)


if __name__ == "__main__":
    payload = build_pins("python")
    assert payload == build_pins("numpy"), "backends disagree"
    PIN_PATH.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {PIN_PATH}")
