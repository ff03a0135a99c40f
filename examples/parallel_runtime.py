#!/usr/bin/env python
"""The block execution engine: parallel fan-out, graph reuse and RunStats.

Demonstrates the runtime layer (``repro.runtime``) end to end:

1. **Executor selection** — the same experiments workload run serially and
   on a 4-process pool, with bit-identical metrics (the engine's
   determinism guarantee: merge order is block order, and no result
   depends on a worker's string-hash seed).
2. **Graph reuse** — ``ExperimentContext.prepare`` runs the quadratic
   pairwise-similarity step once; fit and evaluate passes handed its
   ``graphs_by_name`` score no pair again.
3. **Observability** — every pass reports a ``RunStats`` (wall time,
   pairs scored, per-block timings).

Run:
    python examples/parallel_runtime.py
"""

from repro import ResolverConfig, www05_like
from repro.core.resolver import EntityResolver
from repro.experiments.runner import ExperimentContext, run_config
from repro.runtime import executor_for_workers

WORKERS = 4


def main() -> None:
    dataset = www05_like(seed=1, pages_per_name=30)

    print("=== 1. serial vs process-pool execution =======================")
    serial_context = ExperimentContext.prepare(dataset)
    print("serial  ", serial_context.stats.summary())
    parallel_context = ExperimentContext.prepare(dataset, workers=WORKERS)
    print("parallel", parallel_context.stats.summary())

    seeds = serial_context.seeds(n_runs=2)
    serial = run_config(serial_context, ResolverConfig(), seeds)
    parallel = run_config(parallel_context, ResolverConfig(), seeds,
                          executor=executor_for_workers(WORKERS))
    assert serial.per_seed_reports == parallel.per_seed_reports
    print(f"protocol metrics identical across executors: "
          f"mean Fp = {serial.metric('fp'):.4f}\n")

    print("=== 2. prepared graphs, reused by passing them ================")
    graphs_by_name = serial_context.graphs_by_name
    model = EntityResolver(ResolverConfig()).fit(
        dataset, training_seed=0, graphs_by_name=graphs_by_name)
    resolution = model.evaluate_collection(dataset,
                                           graphs_by_name=graphs_by_name)
    print(f"prepare scored {serial_context.stats.pairs_scored} pairs; "
          f"fit scored {model.fit_stats.pairs_scored}, "
          f"evaluate scored {resolution.stats.pairs_scored}\n")

    print("=== 3. per-block timings ======================================")
    slowest = sorted(serial_context.stats.per_block_seconds.items(),
                     key=lambda item: -item[1])[:3]
    for name, seconds in slowest:
        print(f"{name:<24} {seconds * 1000:7.1f} ms")
    print("\nChoose --workers ~ physical cores for collection-sized "
          "workloads; see docs/performance.md.")


if __name__ == "__main__":
    main()
