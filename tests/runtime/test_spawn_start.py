"""The process pool under the ``spawn`` start method.

The pool forks — the cheapest start, and workers see plugins registered
at run time — but no result depends on that: a spawned worker starts a
fresh interpreter and draws its own string-hash seed, and a
``workers=2`` fit + evaluate still returns the serial fitted blocks and
partitions, leaving no worker process behind.
"""

from __future__ import annotations

import json
import multiprocessing

from repro.core.config import ResolverConfig
from repro.core.resolver import EntityResolver
from repro.runtime import executor as executor_module
from repro.runtime.executor import ProcessPoolBlockExecutor


def fit_evaluate(dataset, executor=None) -> tuple[dict, list]:
    """Fitted state and partitions of a fit + evaluate pass."""
    model = EntityResolver(ResolverConfig()).fit(
        dataset, training_seed=0, executor=executor)
    resolution = model.evaluate_collection(dataset, executor=executor)
    return ({name: json.dumps(fitted.to_dict(), sort_keys=True)
             for name, fitted in model.blocks.items()},
            [(block.query_name, block.predicted)
             for block in resolution.blocks])


def test_spawned_workers_return_the_serial_results(small_dataset,
                                                   monkeypatch):
    monkeypatch.setattr(executor_module, "_fork_context",
                        lambda: multiprocessing.get_context("spawn"))
    before = set(multiprocessing.active_children())
    with ProcessPoolBlockExecutor(workers=2, oversubscribe=True) as pool:
        spawned = fit_evaluate(small_dataset, pool)
        assert pool.fork_waves == 1
    assert spawned == fit_evaluate(small_dataset)

    assert set(multiprocessing.active_children()) <= before
