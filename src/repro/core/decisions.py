"""Decision criteria D_j (§IV-A).

A decision criterion turns one function's similarity value into a binary
same-person decision plus a link-probability estimate.  The paper studies:

* ``ThresholdDecision`` — link iff value ≥ learned threshold (the I
  columns of Table II);
* ``RegionAccuracyDecision`` — partition the value space (equal-width or
  k-means regions), estimate per-region link accuracy, and side with the
  region majority (the C columns).

Both expose the same fitted interface, because a threshold is just a
two-region partition whose region accuracies are learned the same way.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Collection, Iterable, Sequence
from dataclasses import dataclass, replace

from repro.core.accuracy import RegionAccuracyProfile, overall_accuracy
from repro.core.registry import CRITERIA, register_criterion
from repro.core.regions import ThresholdRegions, fit_regions
from repro.core.thresholds import LearnedThreshold, learn_threshold


@dataclass(frozen=True)
class FittedDecision:
    """A criterion fitted on one (function, training sample) combination.

    Attributes:
        criterion_name: e.g. ``"threshold"`` or ``"kmeans"``.
        profile: the per-region accuracy profile backing probabilities.
        threshold: the learned threshold (``None`` for region criteria).
        training_accuracy: fraction of correct decisions on the training
            sample — the paper's acc(G_Dj), used for combining.
    """

    criterion_name: str
    profile: RegionAccuracyProfile
    threshold: LearnedThreshold | None
    training_accuracy: float

    def decide(self, value: float) -> bool:
        """Binary same-person decision for a similarity value."""
        if self.threshold is not None:
            return self.threshold.decide(value)
        return self.profile.decide(value)

    def link_probability(self, value: float) -> float:
        """Estimated P(link) for the value (the §IV-B edge weight)."""
        return self.profile.link_probability(value)

    def decide_all(self, values: Collection[float]) -> Iterable[bool]:
        """:meth:`decide` of every value, in order (a one-shot iterable).

        This and :meth:`link_probabilities` are how decision layers sweep
        a whole similarity graph: the per-region tables the profile froze
        at fit time are indexed from C-level loops, with outcomes
        identical to the scalar methods value by value.
        """
        if self.threshold is not None:
            return map(float(self.threshold.threshold).__le__, values)
        return self.profile.decide_all(values)

    def link_probabilities(self, values: Collection[float]) -> Iterable[float]:
        """:meth:`link_probability` of every value, in order (one-shot)."""
        return self.profile.link_probabilities(values)

    def to_dict(self) -> dict[str, object]:
        """JSON-serializable snapshot of the fitted state."""
        return {
            "criterion_name": self.criterion_name,
            "profile": self.profile.to_dict(),
            "threshold": (None if self.threshold is None
                          else self.threshold.to_dict()),
            "training_accuracy": self.training_accuracy,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, object]) -> "FittedDecision":
        """Rebuild a fitted decision saved by :meth:`to_dict`."""
        threshold_payload = payload["threshold"]
        return cls(
            criterion_name=str(payload["criterion_name"]),
            profile=RegionAccuracyProfile.from_dict(payload["profile"]),
            threshold=(None if threshold_payload is None
                       else LearnedThreshold.from_dict(threshold_payload)),
            training_accuracy=float(payload["training_accuracy"]),
        )


class DecisionCriterion(ABC):
    """A decision-criterion family, fittable per function."""

    name: str

    @abstractmethod
    def fit(self, labeled_values: Sequence[tuple[float, bool]]) -> FittedDecision:
        """Fit on training (similarity value, is-link) pairs."""


def _fitted(criterion_name: str, profile: RegionAccuracyProfile,
            threshold: LearnedThreshold | None,
            labeled_values: Sequence[tuple[float, bool]]) -> FittedDecision:
    """The fitted decision, scored on the sample it was fitted on."""
    fitted = FittedDecision(criterion_name=criterion_name, profile=profile,
                            threshold=threshold, training_accuracy=0.0)
    if not labeled_values:
        return fitted
    decisions = list(fitted.decide_all([value for value, _ in labeled_values]))
    labels = [label for _, label in labeled_values]
    return replace(fitted,
                   training_accuracy=overall_accuracy(decisions, labels))


class ThresholdDecision(DecisionCriterion):
    """Link iff value ≥ the accuracy-maximizing learned threshold."""

    name = "threshold"

    def fit(self, labeled_values: Sequence[tuple[float, bool]]) -> FittedDecision:
        threshold = learn_threshold(labeled_values)
        regions = ThresholdRegions(threshold.threshold)
        return _fitted(self.name, RegionAccuracyProfile(regions, labeled_values),
                       threshold, labeled_values)


class RegionAccuracyDecision(DecisionCriterion):
    """Per-region majority decisions over a fitted value-space partition.

    Args:
        method: ``"equal_width"`` or ``"kmeans"`` (§IV-A's two options).
        k: bin/cluster count (the paper uses ~10).
    """

    def __init__(self, method: str = "kmeans", k: int = 10):
        if method not in ("equal_width", "kmeans"):
            raise ValueError(f"unknown region method: {method!r}")
        self.method = method
        self.k = k
        self.name = method

    def fit(self, labeled_values: Sequence[tuple[float, bool]]) -> FittedDecision:
        values = [value for value, _ in labeled_values]
        if not values:
            # Degenerate: no training data; a single uninformative region.
            regions = ThresholdRegions(threshold=1.1)
        else:
            regions = fit_regions(self.method, values, k=self.k)
        return _fitted(self.name, RegionAccuracyProfile(regions, labeled_values),
                       None, labeled_values)


@register_criterion("threshold")
def _threshold_criterion(k: int) -> DecisionCriterion:
    return ThresholdDecision()


@register_criterion("equal_width")
def _equal_width_criterion(k: int) -> DecisionCriterion:
    return RegionAccuracyDecision(method="equal_width", k=k)


@register_criterion("kmeans")
def _kmeans_criterion(k: int) -> DecisionCriterion:
    return RegionAccuracyDecision(method="kmeans", k=k)


def build_criteria(names: Sequence[str], k: int = 10) -> list[DecisionCriterion]:
    """Instantiate criteria from config names.

    Resolves through the :data:`~repro.core.registry.CRITERIA` registry
    (factories of signature ``(k) -> DecisionCriterion``), so criteria
    added with ``@register_criterion`` work here without editing this
    module.

    Args:
        names: built-ins are ``"threshold"``, ``"equal_width"``,
            ``"kmeans"``.
        k: region count passed to each factory.

    Raises:
        ValueError: for unknown criterion names.
    """
    return [CRITERIA.get(name)(k) for name in names]
