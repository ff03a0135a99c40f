#!/usr/bin/env python
"""Incremental resolution: keep a people-search index fresh.

Simulates the production scenario the paper motivates: an index of
resolved "William Cohen" pages exists, and newly crawled pages arrive one
at a time.  A ``ResolverModel`` is fitted once on the initial crawl (the
only label-consuming step); ``IncrementalResolver.from_model`` adopts the
fitted model without re-training, then assigns each arriving page in
O(pages x functions) — no quadratic re-resolution.

Run:
    python examples/incremental_stream.py
"""

from repro import www05_like
from repro.core import EntityResolver, IncrementalResolver, ResolverConfig
from repro.corpus.documents import NameCollection
from repro.metrics import evaluate_clustering, clustering_from_assignments

QUERY = "William Cohen"
HELD_OUT = 15


def main() -> None:
    dataset = www05_like(seed=1, pages_per_name=60, names=[QUERY])
    block = dataset.by_name(QUERY)
    pages = list(block.pages)
    base = NameCollection(query_name=QUERY, pages=pages[:-HELD_OUT])
    stream = pages[-HELD_OUT:]
    print(f"Initial crawl: {len(base)} pages; "
          f"{len(stream)} pages arrive later.\n")

    batch_resolver = EntityResolver(ResolverConfig())
    pipeline = batch_resolver.pipeline_for(dataset)
    all_features = pipeline.extract_block(block)
    base_features = {page.doc_id: all_features[page.doc_id]
                     for page in base.pages}

    # Fit once on the labeled initial crawl; everything after this line
    # could run in a separate serving process via model.save()/load().
    # Sharing the graphs object between fit and adoption skips the
    # quadratic similarity step the second time.
    from repro.runtime import batched_similarity_graphs
    from repro.similarity.functions import default_functions

    base_graphs = batched_similarity_graphs(base, base_features,
                                            default_functions())
    model = batch_resolver.fit(base, training_seed=0, graphs=base_graphs)
    resolver = IncrementalResolver.from_model(model, base, base_features,
                                              graphs=base_graphs)
    initial = resolver.clusters()
    print(f"Initial resolution: {len(initial)} entities "
          f"(ground truth in base: "
          f"{len({p.person_id for p in base.pages})})\n")

    print(f"{'page':<12} {'decision':<14} {'P(link)':>8}  correct?")
    print("-" * 48)
    truth = {page.doc_id: page.person_id for page in pages}
    n_correct = 0
    for page in stream:
        assignment = resolver.add_page(all_features[page.doc_id])
        cluster = resolver.clusters().cluster_of(page.doc_id)
        mates = [doc for doc in cluster if doc != page.doc_id]
        if mates:
            same = sum(1 for doc in mates if truth[doc] == page.person_id)
            correct = same * 2 > len(mates)
        else:
            base_persons = {p.person_id for p in base.pages}
            correct = page.person_id not in base_persons
        n_correct += correct
        decision = ("new entity" if assignment.created_new_cluster
                    else f"-> entity #{assignment.cluster_index}")
        print(f"{page.doc_id:<12} {decision:<14} "
              f"{assignment.link_probability:>8.3f}  {'yes' if correct else 'NO'}")

    print(f"\n{n_correct}/{len(stream)} stream pages assigned correctly.")

    final = resolver.clusters()
    full_truth = clustering_from_assignments(truth)
    report = evaluate_clustering(final, full_truth)
    print(f"Final index quality: Fp = {report.fp:.4f}, "
          f"F = {report.f1:.4f}, Rand = {report.rand:.4f}")

    batch_model = EntityResolver(ResolverConfig()).fit(
        block, training_seed=0, features=all_features)
    batch = batch_model.evaluate_block(block, features=all_features)
    print(f"Full batch re-resolution for comparison: "
          f"Fp = {batch.report.fp:.4f}")


if __name__ == "__main__":
    main()
