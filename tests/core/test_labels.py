"""Training-sample tests."""

import pytest

from repro.core.labels import TrainingSample
from repro.graph.entity_graph import WeightedPairGraph


def sample():
    return TrainingSample.from_pairs([
        (("a", "b"), True),
        (("a", "c"), False),
        (("b", "c"), False),
    ])


class TestTrainingSample:
    def test_counts(self):
        training = sample()
        assert len(training) == 3
        assert training.n_positives() == 1
        assert training.n_negatives() == 2

    def test_link_prior(self):
        assert sample().link_prior() == pytest.approx(1 / 3)

    def test_link_prior_empty_is_half(self):
        assert TrainingSample.from_pairs([]).link_prior() == 0.5

    def test_labeled_values_join(self):
        graph = WeightedPairGraph.from_scores(
            ["a", "b", "c"], {("a", "b"): 0.9, ("a", "c"): 0.2})
        # ("b","c") missing -> reads 0.0
        values = sample().labeled_values(graph)
        assert values == [(0.9, True), (0.2, False), (0.0, False)]

    def test_pair_keys(self):
        assert sample().pair_keys() == {("a", "b"), ("a", "c"), ("b", "c")}

    def test_label_of(self):
        training = sample()
        assert training.label_of(("a", "b")) is True
        assert training.label_of(("a", "c")) is False

    def test_label_of_missing_raises(self):
        with pytest.raises(KeyError):
            sample().label_of(("x", "y"))

    def test_immutable(self):
        training = sample()
        with pytest.raises(AttributeError):
            training.pairs = ()
