"""Bundled metric reports.

``evaluate_clustering`` computes every measure the experiments need in one
pass; ``mean_report`` averages reports over runs or names, implementing the
paper's "average of 5 runs" protocol and its per-dataset aggregation.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, fields

from repro.metrics.bcubed import bcubed_scores
from repro.metrics.clusterings import Clustering
from repro.metrics.pairwise import pairwise_scores
from repro.metrics.purity import fp_measure, inverse_purity, purity
from repro.metrics.rand import adjusted_rand_index, rand_index


@dataclass(frozen=True)
class MetricReport:
    """All evaluation measures for one predicted clustering."""

    fp: float
    f1: float
    precision: float
    recall: float
    rand: float
    adjusted_rand: float
    purity: float
    inverse_purity: float
    bcubed_precision: float
    bcubed_recall: float
    bcubed_f1: float

    def as_dict(self) -> dict[str, float]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def get(self, metric: str) -> float:
        """Value of one metric by name.

        Raises:
            AttributeError: for unknown metric names.
        """
        return getattr(self, metric)


#: The three metrics the paper reports, in its column order.
PAPER_METRICS = ("fp", "f1", "rand")


def evaluate_clustering(predicted: Clustering, truth: Clustering) -> MetricReport:
    """Score one predicted clustering against ground truth."""
    pair = pairwise_scores(predicted, truth)
    bcubed = bcubed_scores(predicted, truth)
    return MetricReport(
        fp=fp_measure(predicted, truth),
        f1=pair.f1,
        precision=pair.precision,
        recall=pair.recall,
        rand=rand_index(predicted, truth),
        adjusted_rand=adjusted_rand_index(predicted, truth),
        purity=purity(predicted, truth),
        inverse_purity=inverse_purity(predicted, truth),
        bcubed_precision=bcubed.precision,
        bcubed_recall=bcubed.recall,
        bcubed_f1=bcubed.f1,
    )


def mean_report(reports: Sequence[MetricReport]) -> MetricReport:
    """Field-wise mean of several reports.

    Each field is summed with ``math.fsum``, which is exact, so the
    mean does not depend on the reports' order (a collection's blocks
    come in any order).

    Raises:
        ValueError: for an empty sequence.
    """
    if not reports:
        raise ValueError("cannot average zero reports")
    n_reports = len(reports)
    means = {
        f.name: math.fsum(getattr(report, f.name) for report in reports)
        / n_reports
        for f in fields(MetricReport)
    }
    return MetricReport(**means)
