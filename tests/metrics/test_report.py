"""Metric-report bundle tests."""

from itertools import permutations

import pytest

from repro.folds import left_sum
from repro.metrics.clusterings import Clustering
from repro.metrics.report import (
    PAPER_METRICS,
    MetricReport,
    evaluate_clustering,
    mean_report,
)


class TestEvaluateClustering:
    def test_perfect_prediction_all_ones(self):
        truth = Clustering([{"a", "b"}, {"c", "d"}, {"e"}])
        report = evaluate_clustering(truth, truth)
        for metric in ("fp", "f1", "precision", "recall", "rand",
                       "adjusted_rand", "purity", "inverse_purity",
                       "bcubed_precision", "bcubed_recall", "bcubed_f1"):
            assert report.get(metric) == 1.0, metric

    def test_all_metrics_in_unit_interval_except_ari(self):
        predicted = Clustering([{"a", "x"}, {"b", "y"}, {"c"}])
        truth = Clustering([{"a", "b", "c"}, {"x", "y"}])
        report = evaluate_clustering(predicted, truth)
        for metric, value in report.as_dict().items():
            if metric == "adjusted_rand":
                assert -1.0 <= value <= 1.0
            else:
                assert 0.0 <= value <= 1.0, metric

    def test_paper_metrics_names(self):
        assert PAPER_METRICS == ("fp", "f1", "rand")

    def test_get_unknown_metric_raises(self):
        truth = Clustering([{"a"}])
        report = evaluate_clustering(truth, truth)
        with pytest.raises(AttributeError):
            report.get("nonsense")


class TestMeanReport:
    def make(self, value):
        return MetricReport(fp=value, f1=value, precision=value, recall=value,
                            rand=value, adjusted_rand=value, purity=value,
                            inverse_purity=value, bcubed_precision=value,
                            bcubed_recall=value, bcubed_f1=value)

    def test_mean(self):
        averaged = mean_report([self.make(0.2), self.make(0.8)])
        assert averaged.fp == pytest.approx(0.5)
        assert averaged.rand == pytest.approx(0.5)

    def test_single(self):
        report = self.make(0.7)
        assert mean_report([report]) == report

    def test_empty_raises(self):
        with pytest.raises(ValueError, match="zero reports"):
            mean_report([])

    def test_as_dict_roundtrip(self):
        report = self.make(0.3)
        assert MetricReport(**report.as_dict()) == report

    def test_mean_does_not_depend_on_report_order(self):
        """A collection's blocks come in any order; the mean must not
        move, not even in the last bit, though a left-to-right fold of
        these values does."""
        values = [0.1, 0.7, 0.3, 0.9, 0.2]
        assert len({left_sum(order) for order in permutations(values)}) > 1
        reports = [self.make(value) for value in values]
        means = {mean_report(list(order)) for order in permutations(reports)}
        assert len(means) == 1
