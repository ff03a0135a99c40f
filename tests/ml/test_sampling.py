"""Training-sample selection tests."""

import math
import random

import pytest

from repro.corpus.documents import NameCollection
from repro.ml.sampling import (
    all_labeled_pairs,
    sample_training_pairs,
    training_runs,
)


class TestAllLabeledPairs:
    def test_counts_and_labels(self, small_block):
        pairs = all_labeled_pairs(small_block)
        n_pages = len(small_block)
        assert len(pairs) == n_pages * (n_pages - 1) // 2
        truth = small_block.ground_truth()
        for (left, right), label in pairs:
            assert label == (truth[left] == truth[right])

    def test_keys_canonical(self, small_block):
        for (left, right), _ in all_labeled_pairs(small_block):
            assert left < right


class TestSampleTrainingPairs:
    def test_pairs_mode_size(self, small_block):
        total = len(all_labeled_pairs(small_block))
        sample = sample_training_pairs(small_block, fraction=0.1, seed=0)
        assert len(sample) == -(-total // 10)  # ceil

    def test_pairs_mode_subset_of_universe(self, small_block):
        universe = dict(all_labeled_pairs(small_block))
        sample = sample_training_pairs(small_block, fraction=0.2, seed=1)
        for pair, label in sample:
            assert universe[pair] == label

    def test_full_fraction_returns_everything(self, small_block):
        sample = sample_training_pairs(small_block, fraction=1.0, seed=0)
        assert len(sample) == len(all_labeled_pairs(small_block))

    def test_documents_mode(self, small_block):
        sample = sample_training_pairs(small_block, fraction=0.2, seed=0,
                                       mode="documents")
        documents = {doc for pair, _ in sample for doc in pair}
        expected_docs = max(2, -(-len(small_block) // 5))
        assert len(documents) <= expected_docs
        assert len(sample) == len(documents) * (len(documents) - 1) // 2

    def test_different_seeds_differ(self, small_block):
        first = sample_training_pairs(small_block, fraction=0.1, seed=0)
        second = sample_training_pairs(small_block, fraction=0.1, seed=1)
        assert first != second

    def test_same_seed_identical(self, small_block):
        first = sample_training_pairs(small_block, fraction=0.1, seed=42)
        second = sample_training_pairs(small_block, fraction=0.1, seed=42)
        assert first == second

    def test_bad_fraction_raises(self, small_block):
        with pytest.raises(ValueError, match="fraction"):
            sample_training_pairs(small_block, fraction=0.0)
        with pytest.raises(ValueError, match="fraction"):
            sample_training_pairs(small_block, fraction=1.5)

    def test_unknown_mode_raises(self, small_block):
        with pytest.raises(ValueError, match="unknown sampling mode"):
            sample_training_pairs(small_block, fraction=0.1, mode="nope")


class TestPairModeDrawsIndices:
    """``"pairs"`` mode builds only the sampled pairs, and its sample is
    the one ``rng.sample`` draws from the full list of labeled pairs."""

    @pytest.mark.parametrize("n_pages", [0, 1, 2, 3, 7, 30])
    @pytest.mark.parametrize("fraction", [0.05, 0.1, 0.5, 0.99, 1.0])
    @pytest.mark.parametrize("seed", [0, 1, 42])
    def test_same_sample_as_the_full_list(self, small_block, n_pages,
                                          fraction, seed):
        block = NameCollection(small_block.query_name,
                               small_block.pages[:n_pages])
        pairs = all_labeled_pairs(block)
        size = max(1, math.ceil(fraction * len(pairs)))
        expected = (pairs if size >= len(pairs)
                    else random.Random(seed).sample(pairs, size))
        assert sample_training_pairs(block, fraction=fraction,
                                     seed=seed) == expected


class TestTrainingRuns:
    def test_five_runs_default(self):
        assert len(training_runs()) == 5

    def test_deterministic(self):
        assert training_runs(5, base_seed=3) == training_runs(5, base_seed=3)

    def test_distinct_seeds(self):
        seeds = training_runs(10, base_seed=0)
        assert len(set(seeds)) == 10
