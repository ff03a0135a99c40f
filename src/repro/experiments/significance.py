"""Statistical significance of strategy comparisons.

Table II differences in the paper are reported without significance
analysis; with only 12/10 names per dataset that is a real gap.  This
module provides the two standard tools for paired per-name scores:

* a **paired sign-flip permutation test** for the hypothesis "strategy A
  beats strategy B" over names;
* a **paired bootstrap** confidence interval for the mean difference.

Both are exact in spirit (seeded resampling), require no distributional
assumptions, and operate on :class:`~repro.experiments.runner.RunResult`
pairs evaluated on the same dataset and seeds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.experiments.runner import RunResult
from repro.folds import left_sum


@dataclass(frozen=True)
class PairedComparison:
    """Outcome of comparing two strategies on per-name scores."""

    label_a: str
    label_b: str
    metric: str
    mean_difference: float      # mean(A - B) over names
    p_value: float              # one-sided: P(diff >= observed | H0)
    ci_low: float               # bootstrap 95 % CI of the mean difference
    ci_high: float
    n_names: int

    @property
    def significant(self) -> bool:
        """True when A > B at the 5 % level."""
        return self.p_value < 0.05


def paired_differences(result_a: RunResult, result_b: RunResult,
                       metric: str = "fp") -> list[float]:
    """Per-name mean score differences A − B.

    Raises:
        ValueError: when the two results cover different names.
    """
    names_a = set(result_a.names())
    names_b = set(result_b.names())
    if names_a != names_b:
        raise ValueError("results cover different names")
    return [
        result_a.name_mean(name).get(metric)
        - result_b.name_mean(name).get(metric)
        for name in sorted(names_a)
    ]


def permutation_test(differences: list[float], n_permutations: int = 10_000,
                     seed: int = 0) -> float:
    """One-sided paired sign-flip permutation p-value.

    Under H0 (no difference) each per-name difference is symmetric around
    zero, so its sign is exchangeable; the p-value is the fraction of
    random sign assignments whose mean reaches the observed mean.

    Raises:
        ValueError: for an empty difference list.
    """
    if not differences:
        raise ValueError("no differences to test")
    rng = random.Random(seed)
    observed = left_sum(differences) / len(differences)
    at_least_as_large = 0
    for _ in range(n_permutations):
        total = 0.0
        for value in differences:
            total += value if rng.random() < 0.5 else -value
        if total / len(differences) >= observed - 1e-15:
            at_least_as_large += 1
    # Add-one smoothing keeps the estimate away from an impossible 0.
    return (at_least_as_large + 1) / (n_permutations + 1)


def bootstrap_interval(differences: list[float], n_resamples: int = 10_000,
                       confidence: float = 0.95,
                       seed: int = 0) -> tuple[float, float]:
    """Percentile bootstrap CI for the mean difference.

    Raises:
        ValueError: for empty input or a confidence outside (0, 1).
    """
    if not differences:
        raise ValueError("no differences to resample")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    rng = random.Random(seed)
    n_values = len(differences)
    means = []
    for _ in range(n_resamples):
        total = left_sum(differences[rng.randrange(n_values)]
                         for _ in range(n_values))
        means.append(total / n_values)
    means.sort()
    tail = (1.0 - confidence) / 2.0
    low_index = int(tail * n_resamples)
    high_index = min(n_resamples - 1, int((1.0 - tail) * n_resamples))
    return means[low_index], means[high_index]


def compare_strategies(result_a: RunResult, result_b: RunResult,
                       metric: str = "fp", seed: int = 0) -> PairedComparison:
    """Full paired comparison of two evaluated strategies."""
    differences = paired_differences(result_a, result_b, metric=metric)
    ci_low, ci_high = bootstrap_interval(differences, seed=seed)
    return PairedComparison(
        label_a=result_a.label,
        label_b=result_b.label,
        metric=metric,
        mean_difference=left_sum(differences) / len(differences),
        p_value=permutation_test(differences, seed=seed),
        ci_low=ci_low,
        ci_high=ci_high,
        n_names=len(differences),
    )
