"""The paper's entity-resolution framework (§IV).

Pipeline: per-function weighted pair graphs → decision criteria learned on
a small training sample (plain thresholds, equal-width regions, k-means
regions with per-region accuracy estimation) → decision graphs with
accuracy estimates → combination (best-graph selection or accuracy-weighted
averaging) → clustering (transitive closure or correlation clustering).

``EntityResolver.fit`` (Algorithm 1's learning steps) ties it together and
returns a :class:`ResolverModel` that predicts on unlabeled pages,
evaluates against ground truth, and serializes to JSON.  New combiners,
decision criteria, clusterers, similarity functions, sampling modes and
blockers plug in through :mod:`repro.core.registry`.
"""

from repro.core.labels import TrainingSample
from repro.core.registry import (
    BLOCKERS,
    CLUSTERERS,
    COMBINERS,
    CRITERIA,
    SAMPLING_MODES,
    SIMILARITIES,
    Registry,
    register_blocker,
    register_clusterer,
    register_combiner,
    register_criterion,
    register_sampling_mode,
    register_similarity,
)
from repro.core.thresholds import LearnedThreshold, learn_threshold
from repro.core.regions import (
    EqualWidthRegions,
    KMeansRegions,
    Regions,
    ThresholdRegions,
    fit_regions,
)
from repro.core.accuracy import RegionAccuracyProfile, overall_accuracy
from repro.core.decisions import (
    DecisionCriterion,
    FittedDecision,
    RegionAccuracyDecision,
    ThresholdDecision,
    build_criteria,
)
from repro.core.combination import (
    BestGraphSelector,
    CombinationResult,
    Combiner,
    DecisionLayer,
    MajorityVoteCombiner,
    WeightedAverageCombiner,
    build_combiner,
)
from repro.core.config import ResolverConfig
from repro.core.entropy import (
    EntropyWeightedCombiner,
    feature_availability,
    information_gain,
    shannon_entropy,
    value_entropy,
)
from repro.core.clusterers import cluster_combination
from repro.core.model import (
    BlockPrediction,
    BlockResolution,
    CollectionPrediction,
    CollectionResolution,
    FittedBlock,
    FittedLayer,
    ResolverModel,
)
from repro.core.resolver import EntityResolver
from repro.core.incremental import Assignment, IncrementalResolver

__all__ = [
    "TrainingSample",
    "LearnedThreshold",
    "learn_threshold",
    "Regions",
    "EqualWidthRegions",
    "KMeansRegions",
    "ThresholdRegions",
    "fit_regions",
    "RegionAccuracyProfile",
    "overall_accuracy",
    "DecisionCriterion",
    "FittedDecision",
    "ThresholdDecision",
    "RegionAccuracyDecision",
    "build_criteria",
    "DecisionLayer",
    "Combiner",
    "CombinationResult",
    "BestGraphSelector",
    "WeightedAverageCombiner",
    "MajorityVoteCombiner",
    "build_combiner",
    "ResolverConfig",
    "EntropyWeightedCombiner",
    "shannon_entropy",
    "feature_availability",
    "value_entropy",
    "information_gain",
    "EntityResolver",
    "IncrementalResolver",
    "Assignment",
    "ResolverModel",
    "FittedBlock",
    "FittedLayer",
    "BlockPrediction",
    "CollectionPrediction",
    "BlockResolution",
    "CollectionResolution",
    "cluster_combination",
    "Registry",
    "BLOCKERS",
    "COMBINERS",
    "CRITERIA",
    "CLUSTERERS",
    "SIMILARITIES",
    "SAMPLING_MODES",
    "register_blocker",
    "register_combiner",
    "register_criterion",
    "register_clusterer",
    "register_similarity",
    "register_sampling_mode",
]
