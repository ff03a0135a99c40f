"""The stage contract and the context a pipeline run threads through it.

A :class:`Stage` is one typed step of the resolver's dataflow: it
declares the artifact type it consumes and the one it produces, and its
``run`` method transforms the former into the latter.
:class:`~repro.pipeline.plan.Pipeline` validates that adjacent stages
chain (``produces`` feeds ``consumes``), times every stage into a
:class:`StageStats`, and threads a single :class:`PipelineContext`
carrying the run's configuration, executor and lazily resolved
extraction pipeline.

Stages must be no-arg constructible so plans can be composed from
registry names (:func:`~repro.core.registry.register_stage`); per-run
parameters travel on the context, never on the stage instance.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.runtime.stats import RunStats

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.core.config import ResolverConfig
    from repro.core.model import ResolverModel
    from repro.corpus.documents import DocumentCollection
    from repro.extraction.pipeline import ExtractionPipeline
    from repro.graph.entity_graph import WeightedPairGraph
    from repro.runtime.executor import BlockExecutor

__all__ = ["Stage", "StageStats", "PipelineContext"]


@dataclass
class StageStats:
    """Cost record of one stage execution within a pipeline run.

    Attributes:
        stage: the stage's registry name.
        seconds: the stage's wall time.
        consumes: name of the artifact type the stage read.
        produces: name of the artifact type the stage emitted.
        run_stats: the engine's :class:`~repro.runtime.stats.RunStats`
            when the stage fanned block work out through an executor
            (the fit and cluster stages), else ``None``.
    """

    stage: str
    seconds: float
    consumes: str
    produces: str
    run_stats: RunStats | None = None

    def to_dict(self) -> dict[str, object]:
        """JSON-serializable snapshot (benchmarks, the CLI)."""
        return {
            "stage": self.stage,
            "seconds": self.seconds,
            "consumes": self.consumes,
            "produces": self.produces,
            "run_stats": (self.run_stats.to_dict()
                          if self.run_stats is not None else None),
        }


def format_stage_stats(stats: list[StageStats]) -> str:
    """One line summarizing a plan run's per-stage wall times."""
    parts = [f"{entry.stage} {entry.seconds:.3f}s" for entry in stats]
    return "stages: " + " | ".join(parts) if parts else "stages: <none>"


@dataclass
class PipelineContext:
    """Everything a plan run shares across its stages.

    Attributes:
        config: the resolver configuration the plan runs under.
        executor: block executor scheduling per-block fan-out.
        phase: ``"fit"``, ``"predict"`` or ``"evaluate"``.
        model: the serving :class:`ResolverModel` (predict plans only).
        extraction: the extraction pipeline, possibly still unresolved —
            stages call :meth:`require_extraction` which resolves it
            lazily from collection metadata exactly when (and only when)
            a block actually needs extracting.
        graphs_by_name: caller-precomputed similarity graphs, seeded
            into the similarity stage's artifact.
        features_by_name: caller-precomputed features, seeded into the
            extraction stage's artifact.
        training_seed: per-block training-sample seed (fit plans).
        model_block: fitted block serving names the model was never
            fitted on (predict plans).
        evaluate: score predictions against ground truth (predict plans).
        stage_stats: per-stage records, appended by the pipeline runner.
    """

    config: "ResolverConfig"
    executor: "BlockExecutor"
    phase: str = "fit"
    model: "ResolverModel | None" = None
    extraction: "ExtractionPipeline | None" = None
    graphs_by_name: "dict[str, dict[str, WeightedPairGraph]] | None" = None
    features_by_name: "dict[str, dict[str, Any]] | None" = None
    training_seed: int = 0
    model_block: str | None = None
    evaluate: bool = False
    stage_stats: list[StageStats] = field(default_factory=list)
    #: set by a stage that ran an engine pass; the runner pops it onto
    #: the stage's :class:`StageStats` record.
    pending_run_stats: RunStats | None = None

    def require_extraction(
        self, source: "DocumentCollection | None",
    ) -> "ExtractionPipeline":
        """The extraction pipeline, resolving it from ``source`` metadata.

        The resolved pipeline is memoized on the context, so one plan
        run resolves at most once and the driver can hand it to the
        produced model.

        Raises:
            ValueError: when no pipeline was supplied and ``source``
                carries no vocabulary metadata (or is ``None``).
        """
        if self.extraction is None:
            from repro.core.model import resolve_extraction_pipeline

            if source is None:
                raise ValueError(
                    "need an extraction pipeline: the plan's blocks have "
                    "no source collection to resolve one from")
            self.extraction = resolve_extraction_pipeline(source)
        return self.extraction

    def take_run_stats(self) -> RunStats | None:
        """Pop the pending engine stats (the pipeline runner's hook)."""
        stats, self.pending_run_stats = self.pending_run_stats, None
        return stats

    def engine_stats(self) -> RunStats | None:
        """The last engine pass recorded by any stage of this run."""
        for entry in reversed(self.stage_stats):
            if entry.run_stats is not None:
                return entry.run_stats
        return self.pending_run_stats


class Stage(ABC):
    """One typed step of a resolver plan.

    Class attributes:
        name: registry/display name of the stage.
        consumes: artifact class the stage reads.
        produces: artifact class the stage emits.
    """

    name: str = "?"
    consumes: type = object
    produces: type = object

    @abstractmethod
    def run(self, artifact: Any, ctx: PipelineContext) -> Any:
        """Transform ``artifact`` into this stage's output artifact."""

    def describe(self) -> str:
        """``consumes -> [name] -> produces`` (used by ``explain``)."""
        return (f"{self.consumes.__name__} -> [{self.name}] "
                f"-> {self.produces.__name__}")

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.describe()})"
