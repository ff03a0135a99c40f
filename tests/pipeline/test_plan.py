"""Pipeline plan mechanics: chaining, validation, stats, registry."""

from __future__ import annotations

import pytest

from repro.core.config import ResolverConfig
from repro.core.registry import STAGES, register_stage
from repro.core.resolver import EntityResolver
from repro.pipeline import (
    Blocks,
    Corpus,
    Decisions,
    FeatureSet,
    Pipeline,
    PipelineContext,
    PlanError,
    Resolution,
    SimilarityGraphs,
    Stage,
    fit_plan,
    predict_plan,
)
from repro.pipeline.stages import (
    BlockingStage,
    ClusterStage,
    ExtractionStage,
)
from repro.runtime.executor import executor_for_workers


class TestPlanConstruction:
    def test_default_fit_plan_chains(self):
        plan = fit_plan(ResolverConfig())
        assert plan.stage_names() == ["block", "extract", "similarity", "fit"]
        chain = [stage.produces for stage in plan.stages]
        assert chain == [Blocks, FeatureSet, SimilarityGraphs, Decisions]

    def test_default_predict_plan_chains(self):
        plan = predict_plan(ResolverConfig())
        assert plan.stage_names() == [
            "block", "extract", "similarity", "decide", "cluster"]
        assert plan.stages[-1].produces is Resolution

    def test_empty_plan_rejected(self):
        with pytest.raises(PlanError, match="at least one stage"):
            Pipeline([])

    def test_mismatched_chain_rejected(self):
        with pytest.raises(PlanError, match="consumes"):
            Pipeline([BlockingStage(), ClusterStage()])

    def test_wrong_initial_artifact_rejected(self):
        plan = fit_plan(ResolverConfig())
        ctx = PipelineContext(config=ResolverConfig(),
                              executor=executor_for_workers(1))
        with pytest.raises(PlanError, match="consumes Corpus"):
            plan.run(Blocks(blocks=[]), ctx)

    def test_from_names_resolves_registry(self):
        plan = Pipeline.from_names(["block", "extract"], name="prefix")
        assert plan.stage_names() == ["block", "extract"]
        assert isinstance(plan.stages[1], ExtractionStage)

    def test_from_names_unknown_stage(self):
        with pytest.raises(ValueError, match="unknown pipeline stage"):
            Pipeline.from_names(["block", "nope"])

    def test_builtin_stages_registered(self):
        for name in ("block", "extract", "similarity", "fit", "decide",
                     "cluster"):
            assert name in STAGES

    def test_replace_swaps_one_stage(self):
        class OtherBlocker(BlockingStage):
            name = "other"

        plan = fit_plan(ResolverConfig()).replace("block", OtherBlocker())
        assert plan.stage_names() == ["other", "extract", "similarity", "fit"]

    def test_replace_unknown_stage(self):
        with pytest.raises(KeyError, match="no stage"):
            fit_plan(ResolverConfig()).replace("nope", ExtractionStage())

    def test_explain_lists_stages_and_artifacts(self):
        text = predict_plan(ResolverConfig()).explain()
        assert "Corpus" in text
        for name in ("block", "extract", "similarity", "decide", "cluster"):
            assert f"[{name}:" in text
        assert "Resolution" in text


class TestRegisterStage:
    def test_register_and_compose_by_name(self, small_dataset):
        @register_stage("test_first_two_blocks")
        class FirstTwoBlocksStage(Stage):
            name = "test_first_two_blocks"
            consumes = Corpus
            produces = Blocks

            def run(self, corpus, ctx):
                return Blocks(blocks=list(corpus.collection)[:2],
                              source=corpus.collection)

        try:
            plan = Pipeline.from_names(
                ["test_first_two_blocks", "extract", "similarity", "fit"],
                name="custom")
            model = EntityResolver(ResolverConfig()).fit(
                small_dataset, training_seed=0, plan=plan)
            assert model.block_names() == small_dataset.query_names()[:2]
        finally:
            del STAGES._entries["test_first_two_blocks"]

    def test_duplicate_name_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_stage("block")(BlockingStage)


class TestStageStats:
    def test_fit_records_every_stage(self, small_dataset):
        model = EntityResolver(ResolverConfig()).fit(small_dataset,
                                                     training_seed=0)
        stats = model.fit_stage_stats
        assert [entry.stage for entry in stats] == [
            "block", "extract", "similarity", "fit"]
        assert all(entry.seconds >= 0.0 for entry in stats)
        fit_entry = stats[-1]
        assert fit_entry.consumes == "SimilarityGraphs"
        assert fit_entry.produces == "Decisions"
        # The heavy stage carries the engine pass record.
        assert fit_entry.run_stats is not None
        assert fit_entry.run_stats.n_blocks == len(small_dataset.collections)
        assert stats[0].run_stats is None

    def test_predict_records_every_stage(self, small_dataset):
        model = EntityResolver(ResolverConfig()).fit(small_dataset,
                                                     training_seed=0)
        prediction = model.predict_collection(small_dataset)
        assert [entry.stage for entry in prediction.stage_stats] == [
            "block", "extract", "similarity", "decide", "cluster"]
        assert prediction.stage_stats[-1].run_stats is not None

    def test_stage_stats_serialize(self, small_dataset):
        import json

        model = EntityResolver(ResolverConfig()).fit(small_dataset,
                                                     training_seed=0)
        payload = json.dumps([entry.to_dict()
                              for entry in model.fit_stage_stats])
        assert "similarity" in payload
