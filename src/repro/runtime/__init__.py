"""The block execution engine.

Schedules per-block work (fitting, prediction, context preparation)
through pluggable :class:`~repro.runtime.executor.BlockExecutor` backends
and reports every pass as a :class:`~repro.runtime.stats.RunStats`
record.

See ``docs/architecture.md`` for where this layer sits in the pipeline
and ``docs/performance.md`` for tuning guidance.
"""

from repro.runtime.batch import batched_similarity_graphs
from repro.runtime.executor import (
    BlockExecutor,
    DegradedParallelismWarning,
    ProcessPoolBlockExecutor,
    SerialExecutor,
    available_cores,
    build_executor,
    core_report,
    executor_for_workers,
    executor_from_config,
    host_cores,
)
from repro.runtime.shards import ShardHandle, ShardStore, load_shard
from repro.runtime.stats import RunStats, TaskStats

__all__ = [
    "BlockExecutor",
    "DegradedParallelismWarning",
    "ProcessPoolBlockExecutor",
    "RunStats",
    "SerialExecutor",
    "ShardHandle",
    "ShardStore",
    "TaskStats",
    "available_cores",
    "batched_similarity_graphs",
    "build_executor",
    "core_report",
    "executor_for_workers",
    "executor_from_config",
    "host_cores",
    "load_shard",
]
