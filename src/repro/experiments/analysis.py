"""Dataset and result analysis utilities.

Answers the diagnostic questions a practitioner asks of a web-people-search
corpus: how dominated is each name by its largest cluster, how available is
each feature, how informative is each similarity function, and how do
those properties relate to resolution quality.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.entropy import feature_availability, value_entropy
from repro.corpus.datasets import surname
from repro.experiments.runner import ExperimentContext, RunResult
from repro.folds import left_sum
from repro.similarity.functions import ALL_FUNCTION_NAMES


@dataclass(frozen=True)
class BlockProfile:
    """Structural statistics of one name's block."""

    query_name: str
    n_pages: int
    n_persons: int
    dominance: float          # largest true cluster / pages
    singleton_fraction: float  # fraction of true clusters of size 1
    feature_availability: dict[str, float]
    function_entropy: dict[str, float]

    @property
    def label(self) -> str:
        return surname(self.query_name)


def profile_block(context: ExperimentContext, query_name: str) -> BlockProfile:
    """Compute the structural profile of one block."""
    block = context.collection.by_name(query_name)
    sizes = sorted((len(cluster) for cluster in block.true_clusters()),
                   reverse=True)
    n_pages = len(block)
    graphs = context.graphs_by_name[query_name]
    return BlockProfile(
        query_name=query_name,
        n_pages=n_pages,
        n_persons=len(sizes),
        dominance=sizes[0] / n_pages if n_pages else 0.0,
        singleton_fraction=(sum(1 for size in sizes if size == 1) / len(sizes)
                            if sizes else 0.0),
        feature_availability=feature_availability(
            context.features_by_name[query_name]),
        function_entropy={name: value_entropy(graphs[name])
                          for name in ALL_FUNCTION_NAMES},
    )


def profile_collection(context: ExperimentContext) -> list[BlockProfile]:
    """Profiles for every block of the context's dataset."""
    return [profile_block(context, name)
            for name in context.collection.query_names()]


def difficulty_correlation(context: ExperimentContext,
                           result: RunResult,
                           metric: str = "fp") -> float:
    """Pearson correlation between true cluster count and quality.

    The paper's hard names (Voss, Pereira) have many clusters; a negative
    correlation confirms the dataset reproduces that difficulty gradient.
    Returns 0.0 when the correlation is undefined (constant inputs).
    """
    profiles = profile_collection(context)
    xs = [float(profile.n_persons) for profile in profiles]
    ys = [result.name_mean(profile.query_name).get(metric)
          for profile in profiles]
    return _pearson(xs, ys)


def _pearson(xs: list[float], ys: list[float]) -> float:
    n_points = len(xs)
    if n_points < 2:
        return 0.0
    mean_x = left_sum(xs) / n_points
    mean_y = left_sum(ys) / n_points
    cov = left_sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    var_x = left_sum((x - mean_x) ** 2 for x in xs)
    var_y = left_sum((y - mean_y) ** 2 for y in ys)
    if var_x == 0.0 or var_y == 0.0:
        return 0.0
    return cov / (var_x ** 0.5 * var_y ** 0.5)
