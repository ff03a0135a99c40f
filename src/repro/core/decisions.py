"""Decision criteria D_j (§IV-A).

A decision criterion turns one function's similarity value into a binary
same-person decision plus a link-probability estimate.  The paper studies:

* ``ThresholdDecision`` — link iff value ≥ learned threshold (the I
  columns of Table II);
* ``RegionAccuracyDecision`` — partition the value space (equal-width or
  k-means regions), estimate per-region link accuracy, and side with the
  region majority (the C columns).

Both fit to the same thing, a :class:`RegionAccuracyProfile`, because a
threshold is just a two-region partition whose region accuracies are
learned the same way: the profile's majority rule over
``ThresholdRegions(t)`` links exactly the values ``>= t`` (see
:class:`ThresholdDecision`), so there is one decision rule.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Collection, Iterable, Sequence
from dataclasses import dataclass

from repro.core.accuracy import RegionAccuracyProfile
from repro.core.registry import CRITERIA, register_criterion
from repro.core.regions import Regions, ThresholdRegions, fit_regions
from repro.core.thresholds import learn_threshold


@dataclass(frozen=True)
class FittedDecision:
    """A criterion fitted on one (function, training sample) combination.

    Attributes:
        criterion_name: e.g. ``"threshold"`` or ``"kmeans"``.
        profile: the per-region accuracy profile behind both decisions
            and probabilities.
        training_accuracy: fraction of correct decisions on the training
            sample — the paper's acc(G_Dj), used for combining.
    """

    criterion_name: str
    profile: RegionAccuracyProfile
    training_accuracy: float

    def decide(self, value: float) -> bool:
        """Binary same-person decision for a similarity value."""
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
        return self.profile.decide_all(values)

    def link_probabilities(self, values: Collection[float]) -> Iterable[float]:
        """:meth:`link_probability` of every value, in order (one-shot)."""
        return self.profile.link_probabilities(values)

    def to_dict(self) -> dict[str, object]:
        """JSON-serializable snapshot of the fitted state."""
        return {
            "criterion_name": self.criterion_name,
            "profile": self.profile.to_dict(),
            "training_accuracy": self.training_accuracy,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, object]) -> "FittedDecision":
        """Rebuild a fitted decision saved by :meth:`to_dict` (the
        ``"threshold"`` key of older files is ignored: the profile
        decides)."""
        return cls(
            criterion_name=str(payload["criterion_name"]),
            profile=RegionAccuracyProfile.from_dict(payload["profile"]),
            training_accuracy=float(payload["training_accuracy"]),
        )


class DecisionCriterion(ABC):
    """A decision-criterion family, fittable per function."""

    name: str

    @abstractmethod
    def fit(self, labeled_values: Sequence[tuple[float, bool]]) -> FittedDecision:
        """Fit on training (similarity value, is-link) pairs."""


def _fitted(criterion_name: str, regions: Regions,
            labeled_values: Sequence[tuple[float, bool]]) -> FittedDecision:
    """The decision over ``regions``, scored on the sample it was fitted
    on: the profile's counts give how many pairs its majority rule
    decides correctly, the same integer ``overall_accuracy`` counts."""
    profile = RegionAccuracyProfile(regions, labeled_values)
    return FittedDecision(
        criterion_name=criterion_name, profile=profile,
        training_accuracy=(profile.n_correct / len(labeled_values)
                           if labeled_values else 0.0))


class ThresholdDecision(DecisionCriterion):
    """Link iff value ≥ the accuracy-maximizing learned threshold ``t``.

    The fitted decision is the region profile over
    ``ThresholdRegions(t)``, and its majority rule is that threshold
    rule: ties in :func:`learn_threshold` go to the higher threshold, so
    the sample holds more links than non-links at or above ``t`` and no
    more links than non-links below it — the Laplace-smoothed accuracy
    is > 0.5 exactly on ``[t, 1]``.  The one-region ``ALWAYS_LINK``
    (more links than non-links) and ``NEVER_LINK`` (no more) cases
    follow the same way.
    """

    name = "threshold"

    def fit(self, labeled_values: Sequence[tuple[float, bool]]) -> FittedDecision:
        threshold = learn_threshold(labeled_values).threshold
        return _fitted(self.name, ThresholdRegions(threshold),
                       labeled_values)


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
        return _fitted(self.name, regions, labeled_values)


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
