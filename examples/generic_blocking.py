#!/usr/bin/env python
"""Resolve a mixed page universe with a generic registered blocker.

The paper's pipeline blocks pages by the ambiguous query name they were
retrieved for — natural for search-organized collections, impossible for
a mixed universe (a crawl, an upload queue) that is not pre-grouped.
This example shows the general path end to end:

1. **Blocking quality** — run the three built-in blockers over the flat
   page universe and compare pair completeness (recall of true
   co-referent pairs) against reduction ratio (fraction of pairs
   pruned).
2. **Candidate-driven resolution** — fit and evaluate with
   ``ResolverConfig(blocker="token")``: the collection pass's blocking
   step (``repro.blocking.block_collection``) partitions the blocker's
   candidate pairs into connected components,
   and every downstream quadratic step scores only candidate pairs
   (the per-block masks flow through similarity, runtime tasks and
   serving).
3. **A custom blocker** — register a domain-aware blocker with
   ``@register_blocker`` and use it as a config value, no pipeline
   code touched.

Run:
    python examples/generic_blocking.py
"""

from repro import EntityResolver, ResolverConfig, www05_like
from repro.blocking import (
    Blocker,
    BlockingResult,
    QueryNameBlocker,
    SortedNeighborhoodBlocker,
    TokenBlocker,
)
from repro.blocking.base import pairs_within
from repro.core.registry import register_blocker


@register_blocker("domain")
class DomainBlocker(Blocker):
    """Candidates = pairs of pages hosted on the same web domain."""

    name = "domain"

    def block(self, pages):
        page_list = list(pages)
        by_domain: dict[str, list[str]] = {}
        for page in page_list:
            by_domain.setdefault(page.domain, []).append(page.doc_id)
        result = BlockingResult(pages=page_list)
        for ids in by_domain.values():
            result.candidate_pairs.update(pairs_within(ids))
        return result


def main() -> None:
    dataset = www05_like(seed=7, pages_per_name=24)
    universe = list(dataset.all_pages())  # flat: no pre-grouping used

    print(f"universe: {len(universe)} pages, "
          f"{len(dataset)} underlying names\n")

    print("blocking quality on the mixed universe "
          "(completeness vs reduction):")
    blockers = [QueryNameBlocker(), TokenBlocker(),
                SortedNeighborhoodBlocker(window=8), DomainBlocker()]
    for blocker in blockers:
        result = blocker.block(universe)
        print(f"  {blocker.name:<20} pair_completeness="
              f"{result.pair_completeness():.3f}  "
              f"reduction_ratio={result.reduction_ratio():.3f}  "
              f"candidates={result.n_candidates()}")

    print("\nfit + evaluate with the token blocker "
          "(candidate pairs only):")
    config = ResolverConfig(blocker="token")
    model = EntityResolver(config).fit(dataset, training_seed=0)
    print(f"  fitted {len(model.blocks)} candidate component(s): "
          f"{', '.join(model.block_names())}")
    print(f"  {model.fit_stats.summary()}")
    resolution = model.evaluate_collection(dataset)
    mean = resolution.mean_report()
    print(f"  mean Fp = {mean.fp:.4f}, F = {mean.f1:.4f}")

    print("\nthe custom 'domain' blocker is just another config value:")
    domain_model = EntityResolver(
        ResolverConfig(blocker="domain")).fit(dataset, training_seed=0)
    print(f"  fitted {len(domain_model.blocks)} component(s) "
          f"under blocker={domain_model.config.blocker!r}")


if __name__ == "__main__":
    main()
