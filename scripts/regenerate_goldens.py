"""Regenerate the golden similarity/resolution fixtures.

The goldens freeze, for a small deterministic corpus, the exact
per-function similarity graphs (full battery F1–F14) and the resolved
clusterings + metrics under the default configuration.  The regression
test (``tests/integration/test_golden.py``) recomputes everything from
scratch with *each* scoring backend and compares at tolerance zero —
any numeric drift, from either backend, fails loudly.

Run from the repo root after an *intentional* numeric change::

    PYTHONPATH=src python scripts/regenerate_goldens.py

and commit the updated ``tests/data/golden/similarity_golden.json``
together with the change that motivated it (see ``docs/testing.md``).
JSON serializes floats via ``repr``, which round-trips ``float``
exactly, so the stored values are bit-precise.

To compare instead of write::

    PYTHONPATH=src python scripts/regenerate_goldens.py --check

rebuilds the payload with each available backend (``numpy`` only where
it imports), prints the drifted values per function and exits non-zero
on any drift.  It writes nothing and needs neither pytest nor, on the
``python`` backend, numpy — so a bare interpreter can check itself.
"""

from __future__ import annotations

import importlib.util
import json
import os
import struct
import subprocess
import sys
from collections import Counter
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
GOLDEN_PATH = REPO_ROOT / "tests" / "data" / "golden" / \
    "similarity_golden.json"

#: The frozen corpus recipe.  Changing any of these regenerates a
#: different golden — keep them stable.
DATASET = {
    "names": ["Ada Wong", "Bo Chen"],
    "seed": 5,
    "pages_per_name": 10,
    "max_clusters": 3,
    "vocabulary_seed": 7,
    "training_seed": 0,
}


def golden_collection():
    """The frozen corpus (seeded generator — identical on every run)."""
    from repro.corpus.datasets import custom_dataset
    from repro.corpus.generator import GeneratorConfig

    config = GeneratorConfig(pages_per_name=DATASET["pages_per_name"],
                             max_clusters=DATASET["max_clusters"],
                             vocabulary_seed=DATASET["vocabulary_seed"])
    return custom_dataset(list(DATASET["names"]), seed=DATASET["seed"],
                          config=config, dataset_name="golden")


def build_golden(backend: str = "python") -> dict:
    """Compute the golden payload from scratch with one backend."""
    from repro.core.config import ResolverConfig
    from repro.core.resolver import EntityResolver
    from repro.similarity.extended import full_battery

    collection = golden_collection()
    config = ResolverConfig(backend=backend)
    resolver = EntityResolver(config)
    pipeline = resolver.pipeline_for(collection)

    graphs = {}
    for block in collection:
        features = pipeline.extract_block(block)
        from repro.runtime.batch import batched_similarity_graphs
        block_graphs = batched_similarity_graphs(
            block, features, full_battery(), backend=backend)
        graphs[block.query_name] = {
            name: [[left, right, value]
                   for (left, right), value in graph.weights.items()]
            for name, graph in block_graphs.items()
        }

    model = resolver.fit(collection,
                         training_seed=DATASET["training_seed"])
    resolution = model.evaluate_collection(collection)
    resolved = {
        entry.query_name: {
            "clusters": sorted(sorted(cluster)
                               for cluster in entry.predicted),
            "fp": entry.report.fp,
            "f1": entry.report.f1,
            "rand": entry.report.rand,
        }
        for entry in resolution.blocks
    }

    return {
        "description": "Frozen similarity graphs (F1-F14) and resolution "
                       "for the golden corpus; tolerance-zero regression "
                       "reference for every scoring backend.",
        "dataset": DATASET,
        "graphs": graphs,
        "resolution": resolved,
    }


def build_golden_pinned(backend: str = "python") -> dict:
    """:func:`build_golden` in a ``PYTHONHASHSEED=0`` subprocess.

    Similarity values are hash-seed-independent (canonical folds), but
    downstream resolution stages may still iterate sets, so the frozen
    clusterings/metrics are only byte-stable under a pinned hash seed —
    the same caveat ``scripts/smoke_test.sh`` pins for.  Both
    regeneration and the regression test build through this helper, so
    they always compare like with like.  JSON round-trips floats via
    ``repr``, bit-exactly.
    """
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    result = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--emit", backend],
        env=env, capture_output=True, text=True, check=True)
    return json.loads(result.stdout)


def drift(stored: dict, rebuilt: dict) -> Counter:
    """Values of ``rebuilt`` whose bits differ from ``stored``, counted
    per function (a missing or extra pair counts too), plus
    ``resolution`` for each differing clustering or metric."""
    def bits(value: float) -> bytes:
        return struct.pack("<d", value)

    counts: Counter = Counter()
    for block, per_function in stored["graphs"].items():
        fresh_block = rebuilt["graphs"].get(block, {})
        for function in per_function.keys() | fresh_block.keys():
            old = {(left, right): bits(value) for left, right, value
                   in per_function.get(function, ())}
            new = {(left, right): bits(value) for left, right, value
                   in fresh_block.get(function, ())}
            counts[function] += sum(old.get(pair) != new.get(pair)
                                    for pair in old.keys() | new.keys())
    for block, old in stored["resolution"].items():
        new = rebuilt["resolution"].get(block, {})
        counts["resolution"] += old.get("clusters") != new.get("clusters")
        counts["resolution"] += sum(
            metric not in new or bits(old[metric]) != bits(new[metric])
            for metric in ("fp", "f1", "rand"))
    counts["resolution"] += len(rebuilt["resolution"].keys()
                                - stored["resolution"].keys())
    return counts


def check() -> int:
    """Compare every available backend's rebuild with the stored
    fixture; 1 on any drift."""
    stored = json.loads(GOLDEN_PATH.read_text())
    backends = ["python"]
    if importlib.util.find_spec("numpy") is not None:
        backends.append("numpy")
    drifted = False
    for backend in backends:
        counts = drift(stored, build_golden_pinned(backend))
        total = sum(counts.values())
        drifted |= total > 0
        listed = ", ".join(f"{name} {count}" for name, count
                           in sorted(counts.items()) if count)
        print(f"{backend} (Python {sys.version.split()[0]}): "
              f"{total} drifted" + (f" — {listed}" if listed else ""))
    return 1 if drifted else 0


def main() -> None:
    payload = build_golden_pinned()
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(payload, indent=1, sort_keys=True)
                           + "\n")
    n_values = sum(len(pairs) for block in payload["graphs"].values()
                   for pairs in block.values())
    print(f"wrote {GOLDEN_PATH} ({n_values} frozen similarity values, "
          f"{len(payload['resolution'])} resolved blocks)")


if __name__ == "__main__":
    if len(sys.argv) >= 3 and sys.argv[1] == "--emit":
        json.dump(build_golden(sys.argv[2]), sys.stdout)
    elif sys.argv[1:] == ["--check"]:
        sys.exit(check())
    else:
        main()
