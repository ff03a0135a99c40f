"""B-cubed metric tests."""

import pytest

from repro.metrics.bcubed import bcubed_scores
from repro.metrics.clusterings import Clustering


class TestBCubed:
    def test_perfect(self):
        truth = Clustering([{"a", "b"}, {"c"}])
        scores = bcubed_scores(truth, truth)
        assert scores.precision == 1.0
        assert scores.recall == 1.0
        assert scores.f1 == 1.0

    def test_all_merged(self):
        predicted = Clustering([{"a", "b", "c", "d"}])
        truth = Clustering([{"a", "b"}, {"c", "d"}])
        scores = bcubed_scores(predicted, truth)
        assert scores.recall == 1.0
        assert scores.precision == pytest.approx(0.5)

    def test_all_singletons(self):
        predicted = Clustering([{"a"}, {"b"}, {"c"}, {"d"}])
        truth = Clustering([{"a", "b"}, {"c", "d"}])
        scores = bcubed_scores(predicted, truth)
        assert scores.precision == 1.0
        assert scores.recall == pytest.approx(0.5)

    def test_classic_asymmetric_example(self):
        predicted = Clustering([{"a", "b", "c"}, {"d"}])
        truth = Clustering([{"a", "b"}, {"c", "d"}])
        scores = bcubed_scores(predicted, truth)
        # precision: a=2/3, b=2/3, c=1/3, d=1 -> (2/3+2/3+1/3+1)/4
        assert scores.precision == pytest.approx((2 / 3 + 2 / 3 + 1 / 3 + 1) / 4)
        # recall: a=1, b=1, c=1/2, d=1/2
        assert scores.recall == pytest.approx((1 + 1 + 0.5 + 0.5) / 4)

    def test_f1_zero_when_both_zero(self):
        from repro.metrics.bcubed import BCubedScores
        assert BCubedScores(precision=0.0, recall=0.0).f1 == 0.0

    def test_universe_mismatch_raises(self):
        with pytest.raises(ValueError):
            bcubed_scores(Clustering([{"a"}]), Clustering([{"b"}]))


#: Prints the scores of two partitions of 300 string ids whose cluster
#: sizes make the per-item fractions non-dyadic — a float sum over them
#: in set-iteration (string-hash) order differs between processes.
_SCORE_SCRIPT = """
from repro.metrics.bcubed import bcubed_scores
from repro.metrics.clusterings import Clustering
ids = [f"page/{index:03d}" for index in range(300)]
predicted = Clustering([ids[start::7] for start in range(7)])
truth = Clustering([ids[:33], ids[33:144], ids[144:151], ids[151:]])
scores = bcubed_scores(predicted, truth)
print(repr((scores.precision, scores.recall, scores.f1)))
"""


def test_scores_do_not_depend_on_the_hash_seed(under_hash_seeds):
    """Two processes with different string-hash orders print the same
    ``repr``: the fold over the item set is exactly rounded."""
    printed = under_hash_seeds(_SCORE_SCRIPT, [1, 2, 3, 4], timeout=60)
    assert len(printed) == 1, printed
