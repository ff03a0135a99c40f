"""Composable stage plans.

A :class:`Pipeline` is an ordered list of stages whose artifact types
chain: each stage's ``produces`` must feed the next stage's
``consumes``, validated at construction so a malformed plan fails before
any work runs.  ``run`` threads one
:class:`~repro.pipeline.stage.PipelineContext` through the stages,
timing each into a :class:`~repro.pipeline.stage.StageStats`.

Default plans are derived from a :class:`~repro.core.config.ResolverConfig`
through the :data:`~repro.core.registry.STAGES` registry:

* :func:`fit_plan` — ``block → extract → similarity → fit`` (the
  label-consuming training pass behind ``EntityResolver.fit``).
* :func:`predict_plan` — ``block → extract → similarity → decide →
  cluster`` (the label-free serving pass behind
  ``ResolverModel.predict``/``evaluate``).

Custom plans come in two flavors: compose stage *instances* directly
(``Pipeline([MyBlocker(), ExtractionStage(), ...])``), or register a
stage class with :func:`~repro.core.registry.register_stage` and compose
by name with :meth:`Pipeline.from_names`.  ``Pipeline.replace`` swaps a
single stage of an existing plan.  Either way the drivers accept the
plan via their ``plan=`` argument — swapped stages flow through fitting
and serving without touching ``repro.core``.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import replace
from typing import Any

from repro.core.registry import STAGES
from repro.pipeline.artifacts import Corpus
from repro.pipeline.stage import PipelineContext, Stage, StageStats
from repro.runtime.executor import BlockExecutor, executor_from_config
from repro.runtime.stats import RunStats, Timer

__all__ = ["Pipeline", "PlanError", "fit_plan", "predict_plan", "run_pass"]


class PlanError(ValueError):
    """A plan whose stages do not chain, or an artifact of the wrong type."""


class Pipeline:
    """An ordered, type-checked sequence of stages.

    Args:
        stages: the stage instances, in execution order.
        name: display name (``explain`` headers, reprs).

    Raises:
        PlanError: when the plan is empty or adjacent stages do not
            chain (a stage's ``consumes`` is not the previous stage's
            ``produces`` or a superclass of it).
    """

    def __init__(self, stages: Sequence[Stage], name: str = "pipeline"):
        if not stages:
            raise PlanError("a pipeline needs at least one stage")
        self.stages = list(stages)
        self.name = name
        for previous, current in zip(self.stages, self.stages[1:]):
            if not issubclass(previous.produces, current.consumes):
                raise PlanError(
                    f"stage {current.name!r} consumes "
                    f"{current.consumes.__name__} but follows "
                    f"{previous.name!r}, which produces "
                    f"{previous.produces.__name__}")

    @classmethod
    def from_names(cls, names: Sequence[str],
                   name: str = "pipeline") -> "Pipeline":
        """Compose a plan from :data:`~repro.core.registry.STAGES` names.

        Raises:
            ValueError: for unknown stage names (lists the known ones).
            PlanError: when the named stages do not chain.
        """
        return cls([STAGES.get(stage_name)() for stage_name in names],
                   name=name)

    def stage_names(self) -> list[str]:
        return [stage.name for stage in self.stages]

    def replace(self, stage_name: str, stage: Stage) -> "Pipeline":
        """A new plan with the named stage swapped for ``stage``.

        Raises:
            KeyError: when no stage carries ``stage_name``.
            PlanError: when the replacement breaks the artifact chain.
        """
        if stage_name not in self.stage_names():
            raise KeyError(
                f"plan {self.name!r} has no stage {stage_name!r}; "
                f"stages are: {', '.join(self.stage_names())}")
        swapped = [stage if existing.name == stage_name else existing
                   for existing in self.stages]
        return Pipeline(swapped, name=self.name)

    def run(self, artifact: Any, ctx: PipelineContext) -> Any:
        """Thread ``artifact`` through every stage; returns the final one.

        Each stage is timed into a :class:`StageStats` appended to
        ``ctx.stage_stats`` as it starts; a stage that runs an engine
        pass attaches its :class:`~repro.runtime.stats.RunStats` to that
        record.

        Every stage schedules through the *same* ``ctx.executor``: a
        parallel run's persistent worker pool forks once, on the first
        stage that fans out, and is reused by every later stage.  The
        plan does not close the executor — its lifecycle belongs to
        whoever created it (the ``fit``/``predict`` drivers for
        config-built executors, the caller for explicit ones).

        Raises:
            PlanError: when ``artifact`` (or an intermediate artifact)
                is not an instance of the next stage's ``consumes``.
        """
        for stage in self.stages:
            if not isinstance(artifact, stage.consumes):
                raise PlanError(
                    f"stage {stage.name!r} consumes "
                    f"{stage.consumes.__name__}, got "
                    f"{type(artifact).__name__}")
            entry = StageStats(stage=stage.name, seconds=0.0,
                               consumes=stage.consumes.__name__,
                               produces=stage.produces.__name__)
            ctx.stage_stats.append(entry)
            with Timer() as timer:
                artifact = stage.run(artifact, ctx)
            entry.seconds = timer.seconds
        return artifact

    def explain(self) -> str:
        """The resolved plan, one stage per line with artifact types."""
        lines = [f"plan {self.name!r} ({len(self.stages)} stages)"]
        lines.append(f"  {self.stages[0].consumes.__name__}")
        for stage in self.stages:
            lines.append(f"    --[{stage.name}: {type(stage).__name__}]--> "
                         f"{stage.produces.__name__}")
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self.stages)

    def __repr__(self) -> str:
        chain = " -> ".join(self.stage_names())
        return f"Pipeline({self.name!r}: {chain})"


def run_pass(plan: Pipeline, collection, produces: type, config, phase: str,
             executor: BlockExecutor | None = None,
             **context) -> tuple[Any, RunStats, PipelineContext]:
    """Drive ``plan`` over a whole collection as one ``phase`` pass.

    The sequence ``EntityResolver.fit`` and the model's collection
    predict / evaluate share: borrow ``executor`` or build the one
    ``config`` selects (closing only a pool built here — a
    caller-provided executor persists across its runs), thread a
    :class:`PipelineContext` (``context`` are its remaining fields)
    through the plan, and report the pass: a copy of the last fan-out
    stage's record, on the wall clock of the whole plan (the stage's
    own record keeps the fan-out's clock).

    Returns the terminal artifact, the pass's
    :class:`~repro.runtime.stats.RunStats`, and the context (resolved
    extraction pipeline, per-stage records).

    Raises:
        TypeError: when the plan's terminal artifact is not a
            ``produces``.
    """
    owns_executor = executor is None
    executor = executor or executor_from_config(config)
    ctx = PipelineContext(config=config, executor=executor, phase=phase,
                          **context)
    with Timer() as timer:
        try:
            artifact = plan.run(Corpus(collection=collection), ctx)
        finally:
            if owns_executor:
                executor.close()
    if not isinstance(artifact, produces):
        raise TypeError(
            f"{'fit' if phase == 'fit' else 'predict'} plan {plan.name!r} "
            f"produced {type(artifact).__name__}, "
            f"expected {produces.__name__}")
    fanout = next((entry.run_stats for entry in reversed(ctx.stage_stats)
                   if entry.run_stats is not None), None)
    stats = (RunStats.for_executor(phase, executor) if fanout is None
             else replace(fanout,
                          per_block_seconds=dict(fanout.per_block_seconds)))
    stats.wall_seconds = timer.seconds
    return artifact, stats, ctx


def fit_plan(config=None) -> Pipeline:
    """The default training plan a :class:`ResolverConfig` selects.

    Stages resolve through the registry, so a stage registered with
    ``replace=True`` under a built-in name lands in every plan built
    afterwards.  ``config`` is accepted for symmetry and future
    config-driven plan knobs; the stages read it from the run context.
    """
    return Pipeline.from_names(["block", "extract", "similarity", "fit"],
                               name="fit")


def predict_plan(config=None, evaluate: bool = False) -> Pipeline:
    """The default serving plan (``evaluate=True`` scores against labels)."""
    return Pipeline.from_names(
        ["block", "extract", "similarity", "decide", "cluster"],
        name="evaluate" if evaluate else "predict")
