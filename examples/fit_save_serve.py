#!/usr/bin/env python
"""Fit → save → load → serve, plus a custom registry backend.

Demonstrates the two pillars of the train/serve split:

1. **Persistence** — fit a ``ResolverModel`` on labeled data, save it to
   JSON, reload it in a (simulated) serving process, and verify the
   reloaded model produces bit-identical predictions on unlabeled pages.
2. **Extension** — register a custom combiner through the plugin registry
   (``@register_combiner``) and use it via ``ResolverConfig`` without
   touching ``repro.core``.  The saved model records the combiner by
   name, so any process that imports the combiner's module can load it.

Run:
    python examples/fit_save_serve.py
"""

import tempfile
from pathlib import Path

from repro import EntityResolver, ResolverConfig, ResolverModel, www05_like
from repro.core import register_combiner
from repro.core.combination import (
    CombinationResult,
    Combiner,
    average_probabilities,
    thresholded_result,
)


@register_combiner("top3_average")
class Top3AverageCombiner(Combiner):
    """Average only the three most accurate layers, cut at 0.5.

    A deliberately simple custom backend: no training-time learning beyond
    what the layers already carry, so ``fit_params`` stays empty and
    ``apply`` equals ``combine``.
    """

    name = "top3_average"

    def combine(self, layers, training) -> CombinationResult:
        return self.apply(layers, {})

    def apply(self, layers, params) -> CombinationResult:
        if not layers:
            raise ValueError("cannot combine zero decision layers")
        top = sorted(layers, key=lambda layer: -layer.graph_accuracy)[:3]
        combined = average_probabilities(top, [1.0] * len(top))
        return thresholded_result(combined, 0.5)


def main() -> None:
    dataset = www05_like(seed=1, pages_per_name=40)
    names = dataset.query_names()[:4]
    train = www05_like(seed=1, pages_per_name=40, names=names)

    print("=== 1. persistence ============================================")
    model = EntityResolver(ResolverConfig()).fit(train, training_seed=0)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "resolver_model.json"
        model.save(path)
        print(f"saved model: {path.stat().st_size / 1024:.1f} KiB, "
              f"{len(model.blocks)} fitted blocks")

        served = ResolverModel.load(path)  # the "serving process"
        # The collection carries vocabulary metadata, so the served model
        # rebuilds its extraction pipeline on demand — no labels read.
        live = model.predict(train)
        reloaded = served.predict(train)
        for name in names:
            assert (live.by_name(name).predicted
                    == reloaded.by_name(name).predicted), name
        print("reloaded model predicts bit-identically on all "
              f"{len(names)} blocks\n")

    print("=== 2. custom combiner via the registry =======================")
    config = ResolverConfig(combiner="top3_average")  # validates via registry
    custom = EntityResolver(config).fit(train, training_seed=0)
    scored = custom.evaluate(train)
    baseline = model.evaluate(train)
    print(f"{'combiner':<16} {'mean Fp':>8} {'mean F':>8}")
    for label, result in (("best_graph", baseline), ("top3_average", scored)):
        mean = result.mean_report()
        print(f"{label:<16} {mean.fp:>8.4f} {mean.f1:>8.4f}")
    print("\nThe custom backend was registered with @register_combiner and "
          "picked up by ResolverConfig validation, EntityResolver.fit and "
          "ResolverModel serialization — no core module was edited.")


if __name__ == "__main__":
    main()
