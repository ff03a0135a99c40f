#!/usr/bin/env python
"""Web people search: inspect one ambiguous name in depth.

This is the scenario the paper's introduction motivates: a user searches
for "William Cohen" and the engine must group the result pages by real
person.  The example shows the intermediate artifacts a practitioner
would inspect: extracted features, per-function similarity distributions,
learned thresholds, region accuracies, and the final grouping with its
quality against ground truth.

Run:
    python examples/web_people_search.py
"""

from repro import EntityResolver, ResolverConfig, www05_like
from repro.core.labels import TrainingSample
from repro.core.thresholds import learn_threshold
from repro.experiments.figures import figure1_series
from repro.experiments.reporting import format_region_series
from repro.experiments.runner import ExperimentContext
from repro.metrics.clusterings import clustering_from_assignments
from repro.ml.sampling import sample_training_pairs
from repro.runtime import batched_similarity_graphs
from repro.similarity.functions import ALL_FUNCTION_NAMES, default_functions

QUERY = "William Cohen"


def main() -> None:
    dataset = www05_like(seed=1, pages_per_name=60, names=[QUERY])
    block = dataset.by_name(QUERY)
    print(f"Query: {QUERY!r} — {len(block)} result pages, "
          f"{block.n_persons()} real persons\n")

    resolver = EntityResolver(ResolverConfig())
    pipeline = resolver.pipeline_for(dataset)
    features = pipeline.extract_block(block)

    sample_page = block.pages[0]
    bundle = features[sample_page.doc_id]
    print(f"Extracted features of {sample_page.doc_id} ({sample_page.url}):")
    print(f"  most frequent name : {bundle.most_frequent_name!r}")
    print(f"  closest to query   : {bundle.closest_name_to_query!r}")
    print(f"  organizations      : {dict(bundle.organizations)}")
    print(f"  other persons      : {dict(bundle.other_persons)}")
    print(f"  concepts           : {sorted(bundle.concept_set)[:4]}...")
    print(f"  TF-IDF terms       : {len(bundle.tfidf)}\n")

    graphs = batched_similarity_graphs(block, features, default_functions())
    training = TrainingSample.from_pairs(
        sample_training_pairs(block, fraction=0.1, seed=0))

    print("Per-function similarity statistics and learned thresholds:")
    print(f"  {'fn':<4} {'mean':>7} {'max':>7} {'threshold':>10} {'train-acc':>10}")
    for name in ALL_FUNCTION_NAMES:
        values = graphs[name].values()
        learned = learn_threshold(training.labeled_values(graphs[name]))
        mean_value = sum(values) / len(values)
        print(f"  {name:<4} {mean_value:>7.3f} {max(values):>7.3f} "
              f"{learned.threshold:>10.3f} {learned.training_accuracy:>10.3f}")

    context = ExperimentContext.prepare(dataset, pipeline=pipeline)
    points = figure1_series(context, function_name="F3", query_name=QUERY,
                            seed=0)
    print()
    print(format_region_series(
        points, title="Region accuracies of F3 (k-means regions)"))

    model = resolver.fit(block, training_seed=0, graphs=graphs)
    resolution = model.evaluate_block(block, graphs=graphs)
    truth = clustering_from_assignments(block.ground_truth())
    print(f"\nWinning layer: {resolution.chosen_layer}")
    print(f"Found {len(resolution.predicted)} groups "
          f"(ground truth: {len(truth)})")
    print(f"Fp = {resolution.report.fp:.4f}, "
          f"pairwise F = {resolution.report.f1:.4f}, "
          f"Rand = {resolution.report.rand:.4f}")

    largest = max(resolution.predicted, key=len)
    print(f"\nLargest group ({len(largest)} pages): "
          f"{sorted(largest)[:6]}...")


if __name__ == "__main__":
    main()
