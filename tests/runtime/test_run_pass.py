"""``run_pass``: one collection pass's fan-out and its one stats record.

``prepare``, ``fit`` and ``predict`` / ``evaluate`` all schedule their
blocks through :func:`repro.runtime.tasks.run_pass`.  These tests pin
what it promises every caller — results in payload order, every task
folded into one :class:`~repro.runtime.stats.RunStats`, a wall clock
from the caller's start, and executor hand-over only on request — and
that the drivers close an executor they built and no other.
"""

from __future__ import annotations

import pytest

import repro.core.model as core_model
import repro.core.resolver as core_resolver
from repro.core.config import ResolverConfig
from repro.core.resolver import EntityResolver
from repro.corpus.datasets import www05_like
from repro.runtime.executor import ProcessPoolBlockExecutor, SerialExecutor
from repro.runtime.stats import clock
from repro.runtime.tasks import PredictBlockTask, PrepareBlockTask, run_pass


@pytest.fixture(scope="module")
def dataset():
    return www05_like(seed=5, pages_per_name=8,
                      names=["William Cohen", "Adam Cheyer", "Lynn Voss"])


@pytest.fixture(scope="module")
def payloads(dataset):
    resolver = EntityResolver(ResolverConfig())
    pipeline = resolver.pipeline_for(dataset)
    return [PrepareBlockTask(pipeline=pipeline, block=block,
                             functions=tuple(resolver.functions))
            for block in dataset]


class ClosingSpy(SerialExecutor):
    """A serial executor that counts its closes."""

    def __init__(self):
        super().__init__()
        self.closes = 0

    def close(self):
        self.closes += 1


class TestRunPass:
    def test_results_in_payload_order_without_stats(self, dataset,
                                                    payloads):
        results, _ = run_pass(SerialExecutor(), "prepare", "prepare",
                              payloads)
        assert [result[0] for result in results] == dataset.query_names()
        # (query_name, features, graphs): the task's stats are folded
        # into the record, not handed back.
        assert all(len(result) == 3 for result in results)

    def test_one_record_folds_every_task(self, dataset, payloads):
        results, stats = run_pass(SerialExecutor(), "prepare", "prepare",
                                  payloads)
        assert stats.phase == "prepare"
        assert stats.executor == "serial"
        assert stats.n_blocks == len(payloads)
        assert list(stats.per_block_seconds) == dataset.query_names()
        assert stats.pairs_scored == sum(
            graph.n_pairs() for _, _, graphs in results
            for graph in graphs.values()) > 0
        assert stats.shard_bytes_published == 0
        assert stats.fork_waves == 0

    def test_serial_wall_clock_covers_every_task(self, payloads):
        _, stats = run_pass(SerialExecutor(), "prepare", "prepare",
                            payloads)
        assert stats.wall_seconds >= sum(stats.per_block_seconds.values())

    def test_wall_clock_runs_from_the_callers_start(self, payloads):
        started = clock() - 60.0
        _, stats = run_pass(SerialExecutor(), "prepare", "prepare",
                            payloads[:1], started=started)
        assert stats.wall_seconds >= 60.0

    def test_empty_pass_is_an_empty_record(self):
        results, stats = run_pass(SerialExecutor(), "fit", "fit", [])
        assert results == []
        assert stats.n_blocks == 0
        assert stats.per_block_seconds == {}
        assert stats.wall_seconds >= 0.0

    @pytest.mark.parametrize("close, closes", [(False, 0), (True, 1)])
    def test_executor_closed_only_when_handed_over(self, payloads, close,
                                                   closes):
        spy = ClosingSpy()
        run_pass(spy, "prepare", "prepare", payloads[:1], close=close)
        assert spy.closes == closes

    def test_a_handed_over_executor_closes_when_a_task_raises(self,
                                                              dataset):
        model = EntityResolver(ResolverConfig()).fit(dataset,
                                                     training_seed=0)
        block = dataset.collections[0]
        # No graphs and no pipeline: the task body cannot score the block.
        broken = PredictBlockTask(config=model.config,
                                  fitted=model.blocks[block.query_name],
                                  block=block, graphs=None, pipeline=None,
                                  evaluate=False)
        spy = ClosingSpy()
        with pytest.raises(ValueError, match="neither precomputed graphs"):
            run_pass(spy, "predict", "predict", [broken], close=True)
        assert spy.closes == 1

    def test_pool_record_matches_serial_and_counts_its_own_waves(
            self, payloads):
        serial_results, serial = run_pass(SerialExecutor(), "prepare",
                                          "prepare", payloads)
        with ProcessPoolBlockExecutor(workers=2,
                                      oversubscribe=True) as pool:
            results, first = run_pass(pool, "prepare", "prepare", payloads)
            _, second = run_pass(pool, "prepare", "prepare", payloads)
        assert [name for name, *_ in results] == \
            [name for name, *_ in serial_results]
        for stats in (first, second):
            assert stats.executor == "process"
            assert stats.n_blocks == serial.n_blocks
            assert stats.pairs_scored == serial.pairs_scored
            assert stats.shard_bytes_published > 0
        # The persistent pool forks once: the second pass reuses it.
        assert (first.fork_waves, second.fork_waves) == (1, 0)


class TestDriversOwnTheirExecutor:
    """A pass given no executor builds one from the config and closes
    it; a caller's executor is never closed."""

    @pytest.fixture()
    def built(self, monkeypatch):
        spies = []

        def from_config(config):
            spies.append(ClosingSpy())
            return spies[-1]

        for module in (core_resolver, core_model):
            monkeypatch.setattr(module, "executor_from_config", from_config)
        return spies

    def test_fit_and_evaluate_close_the_executor_they_built(self, dataset,
                                                            built):
        model = EntityResolver(ResolverConfig()).fit(dataset,
                                                     training_seed=0)
        model.evaluate_collection(dataset)
        assert [spy.closes for spy in built] == [1, 1]

    def test_records_span_blocking_and_the_fan_out(self, dataset, built):
        model = EntityResolver(ResolverConfig()).fit(dataset,
                                                     training_seed=0)
        resolution = model.evaluate_collection(dataset)
        for stats, phase in ((model.fit_stats, "fit"),
                             (resolution.stats, "evaluate")):
            assert stats.phase == phase
            assert stats.n_blocks == len(dataset.collections)
            assert list(stats.per_block_seconds) == dataset.query_names()
            assert stats.wall_seconds >= sum(
                stats.per_block_seconds.values())
