"""Golden regression: frozen similarity values and resolutions.

``tests/data/golden/similarity_golden.json`` freezes the exact
per-function similarity graphs (full battery) and resolved clusterings
of a small deterministic corpus.  Both scoring backends must reproduce
every stored value at **tolerance zero** — a single flipped ulp anywhere
in extraction, the measures, or a backend kernel fails this suite
loudly.  Regenerate intentionally with
``PYTHONPATH=src python scripts/regenerate_goldens.py`` (see
``docs/testing.md``).
"""

from __future__ import annotations

import copy
import importlib.util
import json
import math
import struct
from collections import Counter
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
GOLDEN_PATH = REPO_ROOT / "tests" / "data" / "golden" / \
    "similarity_golden.json"

_spec = importlib.util.spec_from_file_location(
    "regenerate_goldens", REPO_ROOT / "scripts" / "regenerate_goldens.py")
regenerate_goldens = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regenerate_goldens)

BACKENDS = ("python", "numpy")


def bits(value: float) -> bytes:
    return struct.pack("<d", value)


@pytest.fixture(scope="module")
def golden():
    assert GOLDEN_PATH.exists(), (
        f"missing golden fixture {GOLDEN_PATH}; run "
        "PYTHONPATH=src python scripts/regenerate_goldens.py")
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module", params=BACKENDS)
def recomputed(request):
    """The golden payload rebuilt from scratch with one backend.

    Built in a ``PYTHONHASHSEED=0`` subprocess like the stored fixture
    was: similarity values are hash-independent, but the resolution
    stages' set iteration is only byte-stable under a pinned seed.
    """
    return request.param, regenerate_goldens.build_golden_pinned(
        request.param)


class TestGoldenFixture:
    def test_recipe_unchanged(self, golden):
        """The frozen corpus recipe must match the generator's."""
        assert golden["dataset"] == regenerate_goldens.DATASET

    def test_similarity_values_drift_free(self, golden, recomputed):
        backend, rebuilt = recomputed
        assert rebuilt["graphs"].keys() == golden["graphs"].keys()
        for block, per_function in golden["graphs"].items():
            fresh_block = rebuilt["graphs"][block]
            assert fresh_block.keys() == per_function.keys(), block
            for function, stored in per_function.items():
                fresh = fresh_block[function]
                assert len(fresh) == len(stored), (backend, block, function)
                for (left, right, value), (fresh_left, fresh_right,
                                           fresh_value) in zip(stored,
                                                               fresh):
                    assert (left, right) == (fresh_left, fresh_right)
                    assert bits(value) == bits(fresh_value), (
                        f"{backend} backend drifted on {block}/{function} "
                        f"pair ({left}, {right}): stored {value!r}, "
                        f"recomputed {fresh_value!r}")

    def test_resolution_drift_free(self, golden, recomputed):
        backend, rebuilt = recomputed
        assert rebuilt["resolution"].keys() == golden["resolution"].keys()
        for block, stored in golden["resolution"].items():
            fresh = rebuilt["resolution"][block]
            assert fresh["clusters"] == stored["clusters"], (backend, block)
            for metric in ("fp", "f1", "rand"):
                assert bits(fresh[metric]) == bits(stored[metric]), (
                    f"{backend} backend drifted on {block} metric "
                    f"{metric}: stored {stored[metric]!r}, recomputed "
                    f"{fresh[metric]!r}")

    def test_check_counts_flipped_bits(self, golden):
        """``regenerate_goldens.py --check`` counts drift per function."""
        rebuilt = copy.deepcopy(golden)
        block = next(iter(rebuilt["graphs"]))
        entry = rebuilt["graphs"][block]["F2"][0]
        entry[2] = math.nextafter(entry[2], 2.0)
        rebuilt["resolution"][block]["fp"] += 1.0
        assert sum(regenerate_goldens.drift(golden, golden).values()) == 0
        assert regenerate_goldens.drift(golden, rebuilt) == Counter(
            {"F2": 1, "resolution": 1})

    def test_goldens_cover_full_battery(self, golden):
        from repro.similarity.extended import SUBSET_I14

        for per_function in golden["graphs"].values():
            assert set(per_function) == set(SUBSET_I14)
