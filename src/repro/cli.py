"""Command-line interface.

Subcommands::

    python -m repro.cli generate --dataset www05 --out data.json
    python -m repro.cli generate --dataset scale --names 500 --pages 20 \
        --collision 0.3 --out corpus.jsonl
    python -m repro.cli fit      --model model.json [--in data.json]
    python -m repro.cli predict  --model model.json [--in data.json]
    python -m repro.cli serve    --model model.json [--requests 20] \
        [--threads 4 --batch-window 2 --swap-model model2.json]
    python -m repro.cli pipeline explain [--column C10]
    python -m repro.cli resolve  --dataset www05 [--in data.json]
    python -m repro.cli figure1  [--function F3] [--name Cohen]
    python -m repro.cli figure2 | figure3
    python -m repro.cli table2 | table3
    python -m repro.cli analyze  --dataset www05

``fit`` consumes ground-truth labels once and writes a reusable JSON
model; ``predict`` loads that model and resolves pages *without reading
labels* (add ``--evaluate`` to also score against labels when present).
``pipeline explain`` prints the stage plans a configuration resolves to
(artifact types included); ``serve`` demos the online request path — it
loads a model once and streams simulated single-page requests through a
:class:`~repro.pipeline.session.ResolutionSession`; with ``--threads N``
(N > 1) or ``--swap-model`` it serves the same stream through the
concurrent :class:`~repro.serving.engine.ServingEngine` from a
closed-loop thread pool and reports QPS with exact latency percentiles.

Common options: ``--pages`` (pages per name), ``--runs`` (protocol runs),
``--seed`` (corpus seed), ``--workers`` (block-executor fan-out: ``N > 1``
schedules per-block work on an ``N``-process pool with bit-identical
results — applies to fitting, prediction and context preparation; the
resolve/figure/table protocol loops stay serial), ``--backend``
(pairwise-scoring backend for the similarity hot path: ``python`` or
``numpy``, bit-identical — applies to fit, predict, serve, resolve and
context preparation; defaults to ``REPRO_BACKEND``; see
``docs/performance.md``), ``--blocker`` (candidate-pair generation for
fit/predict collection passes: ``query_name`` — the paper's per-name
blocking, the default — or a generic registered blocker such as
``token`` / ``sorted_neighborhood``, which re-blocks the corpus into
candidate components and scores only candidate pairs; see
``docs/blocking.md``).  All output is plain text on stdout.
"""

from __future__ import annotations

import argparse
import sys

from repro.core.config import ResolverConfig, table2_config
from repro.core.model import ResolverModel
from repro.core.resolver import EntityResolver
from repro.corpus.datasets import surname, weps2_like, www05_like
from repro.corpus.loaders import (
    load_collection,
    save_blocks_jsonl,
    save_collection,
)
from repro.experiments.analysis import profile_collection
from repro.experiments.figures import (
    figure1_series,
    per_function_series,
)
from repro.experiments.reporting import (
    format_bar_chart,
    format_region_series,
    format_table,
)
from repro.experiments.runner import ExperimentContext
from repro.experiments.tables import TABLE2_COLUMNS, table2, table3
from repro.metrics.report import PAPER_METRICS
from repro.runtime.executor import executor_for_workers


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Entity resolution for web document collections "
                    "(ICDE 2010 reproduction)")
    parser.add_argument("--pages", type=int, default=60,
                        help="pages per ambiguous name (default 60)")
    parser.add_argument("--runs", type=int, default=3,
                        help="protocol runs to average (default 3; paper: 5)")
    parser.add_argument("--seed", type=int, default=1,
                        help="corpus seed (default 1)")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes for per-block work in fit, "
                             "predict, and context preparation (resolve/"
                             "figure/table protocol loops stay serial); "
                             "default 1 = serial; parallel runs are "
                             "bit-identical to serial")
    parser.add_argument("--oversubscribe", action="store_true",
                        help="let --workers exceed the host's core count "
                             "(normally the worker count is capped at "
                             "the cores the scheduling affinity grants; "
                             "useful when the environment mis-reports "
                             "cores)")
    parser.add_argument("--backend", default=None,
                        help="pairwise-scoring backend for the similarity "
                             "hot path ('python' or 'numpy'); default: the "
                             "REPRO_BACKEND environment variable, else "
                             "'python'.  Backends produce bit-identical "
                             "results — this is purely a speed knob")
    parser.add_argument("--blocker", default=None,
                        help="candidate-pair blocking for fit/predict "
                             "collection passes ('query_name', 'token', "
                             "'sorted_neighborhood', or any registered "
                             "blocker); default: the config's "
                             "('query_name', the paper's per-name "
                             "blocking).  Generic blockers re-block the "
                             "corpus into candidate components and score "
                             "only candidate pairs — unlike --backend this "
                             "changes which pairs exist, and the choice is "
                             "saved into fitted models")

    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser(
        "generate", help="generate a dataset and write it to disk")
    generate.add_argument("--dataset", choices=("www05", "weps2", "scale"),
                          default="www05",
                          help="paper-shaped fixture or a 'scale' corpus "
                               "with synthesized names (see --names, "
                               "--collision)")
    generate.add_argument("--out", required=True,
                          help="output path; a .jsonl suffix (or --format "
                               "jsonl) selects the streaming block-per-"
                               "line format, which writes scale corpora "
                               "in O(one block) memory")
    generate.add_argument("--format", choices=("json", "jsonl"),
                          default=None,
                          help="on-disk format; default: inferred from "
                               "the --out suffix")
    generate.add_argument("--names", type=int, default=50,
                          help="scale only: total ambiguous-name count "
                               "(total pages = names x --pages; "
                               "default 50)")
    generate.add_argument("--collision", type=float, default=0.0,
                          help="scale only: probability a synthesized "
                               "name reuses an earlier name's surname "
                               "(default 0.0)")
    generate.add_argument("--cluster-skew", type=float, default=1.1,
                          help="scale only: entities-per-name Zipf skew; "
                               "0 = uniform (default 1.1)")
    generate.add_argument("--length-skew", type=float, default=0.0,
                          help="scale only: Pareto page-length tail "
                               "exponent; 0 = uniform lengths (default)")
    generate.add_argument("--vocab-zipf", type=float, default=1.05,
                          help="scale only: Zipf exponent of the lexicon "
                               "word frequencies; 0 = uniform "
                               "(default 1.05)")

    fit = commands.add_parser(
        "fit", help="fit a resolver model on labeled data and save it")
    fit.add_argument("--dataset", choices=("www05", "weps2"),
                     default="www05")
    fit.add_argument("--in", dest="input_path", default=None,
                     help="fit on a previously generated JSON dataset")
    fit.add_argument("--model", required=True,
                     help="output path for the fitted model (JSON)")
    fit.add_argument("--column", default="default",
                     help="Table II column preset, or 'default'")
    fit.add_argument("--train-seed", type=int, default=0,
                     help="training-sample seed (default 0)")

    predict = commands.add_parser(
        "predict", help="resolve pages with a saved model (labels unused)")
    predict.add_argument("--dataset", choices=("www05", "weps2"),
                         default="www05")
    predict.add_argument("--in", dest="input_path", default=None,
                         help="predict a previously generated JSON dataset")
    predict.add_argument("--model", required=True,
                         help="path of a fitted model written by 'fit'")
    predict.add_argument("--evaluate", action="store_true",
                         help="also score predictions against ground truth")
    predict.add_argument("--model-block", default=None,
                         help="fitted block whose state serves names the "
                              "model was never fitted on")

    serve = commands.add_parser(
        "serve", help="demo the online serving loop (ResolutionSession)")
    serve.add_argument("--dataset", choices=("www05", "weps2"),
                       default="www05")
    serve.add_argument("--in", dest="input_path", default=None,
                       help="serve pages of a previously generated JSON "
                            "dataset")
    serve.add_argument("--model", required=True,
                       help="path of a fitted model written by 'fit'")
    serve.add_argument("--requests", type=int, default=20,
                       help="simulated single-page requests (default 20)")
    serve.add_argument("--max-blocks", type=int, default=32,
                       help="LRU bound on prepared name blocks (default 32)")
    serve.add_argument("--model-block", default=None,
                       help="fitted block whose state serves names the "
                            "model was never fitted on")
    serve.add_argument("--threads", type=int, default=1,
                       help="closed-loop load-generator threads; > 1 "
                            "serves through the concurrent ServingEngine "
                            "(default 1: the serial demo loop)")
    serve.add_argument("--batch-window", type=float, default=2.0,
                       help="milliseconds a lane leader holds a "
                            "non-full batch open for coalescing "
                            "(engine mode only; default 2.0)")
    serve.add_argument("--swap-model", default=None,
                       help="second fitted model hot-swapped in halfway "
                            "through the request stream (engine mode)")

    pipeline_cmd = commands.add_parser(
        "pipeline", help="inspect the resolver's stage plans")
    pipeline_cmd.add_argument("action", choices=("explain",),
                              help="'explain' prints the resolved plans "
                                   "with artifact types")
    pipeline_cmd.add_argument("--column", default="default",
                              help="Table II column preset, or 'default'")

    resolve = commands.add_parser("resolve", help="run Algorithm 1")
    resolve.add_argument("--dataset", choices=("www05", "weps2"),
                         default="www05")
    resolve.add_argument("--in", dest="input_path", default=None,
                         help="resolve a previously generated JSON dataset")
    resolve.add_argument("--column", default="C10",
                         help="Table II column preset (default C10)")

    figure1 = commands.add_parser("figure1",
                                  help="per-region accuracy (paper Fig. 1)")
    figure1.add_argument("--function", default="F3")
    figure1.add_argument("--name", default=None,
                         help="query name (default: the Cohen block)")
    figure1.add_argument("--method", choices=("kmeans", "equal_width"),
                         default="kmeans")

    commands.add_parser("figure2", help="WWW'05 function comparison (Fig. 2)")
    commands.add_parser("figure3", help="WePS function comparison (Fig. 3)")
    commands.add_parser("table2", help="Table II on both datasets")
    commands.add_parser("table3", help="Table III per-name Fp")

    analyze = commands.add_parser("analyze", help="dataset difficulty profile")
    analyze.add_argument("--dataset", choices=("www05", "weps2"),
                         default="www05")
    return parser


def _dataset(args: argparse.Namespace, which: str | None = None):
    which = which or getattr(args, "dataset", "www05")
    if which == "weps2":
        return weps2_like(seed=args.seed + 1,
                          pages_per_name=int(args.pages * 1.5))
    return www05_like(seed=args.seed, pages_per_name=args.pages)


def _context(args: argparse.Namespace, which: str | None = None,
             input_path: str | None = None) -> ExperimentContext:
    if input_path:
        collection = load_collection(input_path)
    else:
        collection = _dataset(args, which)
    return ExperimentContext.prepare(
        collection,
        workers=getattr(args, "workers", 1),
        oversubscribe=getattr(args, "oversubscribe", False),
        backend=getattr(args, "backend", None))


def _apply_overrides(config: ResolverConfig,
                     args: argparse.Namespace) -> ResolverConfig:
    """The config with ``--backend``/``--blocker`` applied.

    Unchanged (same object) when neither flag was given, so saved-model
    configs pass through untouched by default.
    """
    updates = {}
    backend = getattr(args, "backend", None)
    if backend is not None and backend != config.backend:
        updates["backend"] = backend
    blocker = getattr(args, "blocker", None)
    if blocker is not None and blocker != config.blocker:
        updates["blocker"] = blocker
    if not updates:
        return config
    from dataclasses import replace
    return replace(config, **updates)


def _print_stats(stats) -> None:
    """Engine stats line (skipped when a path produced none)."""
    if stats is not None:
        print(stats.summary())


def _print_stage_stats(stage_stats) -> None:
    """Per-stage timing line (skipped when a path ran no plan)."""
    if stage_stats:
        from repro.pipeline.stage import format_stage_stats
        print(format_stage_stats(stage_stats))


def _seeds(args: argparse.Namespace, context: ExperimentContext) -> list[int]:
    return context.seeds(n_runs=args.runs, base_seed=0)


def cmd_generate(args: argparse.Namespace) -> int:
    out_format = args.format or (
        "jsonl" if str(args.out).endswith(".jsonl") else "json")
    if args.dataset == "scale":
        from repro.corpus.datasets import scale_config, scale_generator

        config = scale_config(pages_per_name=args.pages,
                              cluster_count_skew=args.cluster_skew,
                              page_length_skew=args.length_skew,
                              vocabulary_zipf=args.vocab_zipf)
        generator, names = scale_generator(
            args.names, seed=args.seed, collision_rate=args.collision,
            config=config)
        dataset_name = f"scale-{args.names}x{args.pages}"
        if out_format == "jsonl":
            # True streaming: blocks go straight to disk, one at a time —
            # this path never holds more than one block in memory.
            pages = save_blocks_jsonl(
                generator.iter_blocks(names, args.seed), args.out,
                name=dataset_name,
                metadata=generator.corpus_metadata(args.seed))
            print(f"wrote {pages} pages / {len(names)} names to {args.out} "
                  f"(streamed jsonl)")
            return 0
        collection = generator.generate(names, seed=args.seed,
                                        dataset_name=dataset_name)
    else:
        collection = _dataset(args)
    if out_format == "jsonl":
        save_blocks_jsonl(collection.collections, args.out,
                          name=collection.name,
                          metadata=collection.metadata)
    else:
        save_collection(collection, args.out)
    summary = collection.summary()
    print(f"wrote {summary['pages']} pages / {summary['names']} names "
          f"to {args.out}")
    return 0


def _load_or_generate(args: argparse.Namespace):
    if args.input_path:
        return load_collection(args.input_path)
    return _dataset(args)


def cmd_fit(args: argparse.Namespace) -> int:
    collection = _load_or_generate(args)
    config = _apply_overrides(ResolverConfig() if args.column == "default"
                            else table2_config(args.column), args)
    # --workers is a runtime choice of *this* process, passed as an
    # explicit executor so it is never baked into the saved artifact — a
    # model fitted with --workers 4 must not make later loaders fan out.
    with executor_for_workers(args.workers,
                              oversubscribe=args.oversubscribe) as executor:
        model = EntityResolver(config).fit(
            collection, training_seed=args.train_seed, executor=executor)
    model.save(args.model)
    _print_stats(model.fit_stats)
    _print_stage_stats(model.fit_stage_stats)
    rows = [[surname(name), len(fitted.layers), fitted.n_training,
             fitted.combiner_params.get("chosen_layer", "-")]
            for name, fitted in model.blocks.items()]
    print(format_table(["name", "layers", "train pairs", "chosen layer"],
                       rows, title=f"Fitted model ({config.combiner})"))
    print(f"wrote {len(model.blocks)} fitted blocks to {args.model}")
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    model = ResolverModel.load(args.model)
    # Bit-identical backends make this a pure speed override for the
    # serving pass; the saved artifact is untouched.
    model.config = _apply_overrides(model.config, args)
    collection = _load_or_generate(args)
    with executor_for_workers(args.workers,
                              oversubscribe=args.oversubscribe) as executor:
        if args.evaluate:
            unlabeled = [page.doc_id for page in collection.all_pages()
                         if page.person_id is None]
            if unlabeled:
                print(f"cannot evaluate: {len(unlabeled)} pages have no "
                      f"ground-truth label (e.g. {unlabeled[0]!r}); drop "
                      "--evaluate to predict without labels", file=sys.stderr)
                return 2
            try:
                resolution = model.evaluate(collection,
                                            model_block=args.model_block,
                                            executor=executor)
            except KeyError as error:
                print(f"cannot predict: {error.args[0]}", file=sys.stderr)
                return 2
            rows = [[surname(block.query_name), len(block.predicted),
                     block.report.fp, block.report.f1,
                     block.chosen_layer or "-"]
                    for block in resolution.blocks]
            print(format_table(["name", "entities", "Fp", "F", "layer"], rows,
                               title="Predictions (scored against labels)"))
            mean = resolution.mean_report()
            print(f"mean Fp = {mean.fp:.4f}, F = {mean.f1:.4f}")
            _print_stats(resolution.stats)
            _print_stage_stats(resolution.stage_stats)
        else:
            try:
                prediction = model.predict(collection,
                                           model_block=args.model_block,
                                           executor=executor)
            except KeyError as error:
                print(f"cannot predict: {error.args[0]}", file=sys.stderr)
                return 2
            rows = [[surname(block.query_name),
                     len(block.predicted.items), len(block.predicted),
                     block.chosen_layer or "-"]
                    for block in prediction.blocks]
            print(format_table(["name", "pages", "entities", "layer"], rows,
                               title="Predictions (ground truth unused)"))
            _print_stats(prediction.stats)
            _print_stage_stats(prediction.stage_stats)
    return 0


def cmd_pipeline(args: argparse.Namespace) -> int:
    from repro.pipeline.plan import fit_plan, predict_plan

    config = (ResolverConfig() if args.column == "default"
              else table2_config(args.column))
    print(f"stage plans for config: column={args.column}, "
          f"combiner={config.combiner!r}, clusterer={config.clusterer!r}, "
          f"functions={len(config.function_names)}")
    print()
    print(fit_plan(config).explain())
    print()
    print(predict_plan(config).explain())
    print()
    print(predict_plan(config, evaluate=True).explain())
    return 0


def _serve_traffic(server, collection, limit: int) -> tuple[int, list]:
    """Warm ``server`` and build the demo's request stream.

    Every block's first half goes through ``server.resolve`` as one
    batch (the "initial crawl"); up to ``limit`` of the remaining pages
    come back round-robin over the names — the shape of live traffic
    over an existing index.  ``server`` is anything with ``.resolve``.

    Returns the number of blocks warmed and the stream.
    """
    queues: list[list] = []
    for block in collection:
        pages = list(block.pages)
        warm_count = max(1, len(pages) // 2)
        server.resolve(pages[:warm_count])
        queues.append(pages[warm_count:])
    stream = []
    position = 0
    while len(stream) < limit and any(queues):
        queue = queues[position % len(queues)]
        position += 1
        if queue:
            stream.append(queue.pop(0))
    return len(queues), stream


def cmd_serve(args: argparse.Namespace) -> int:
    import time

    from repro.core.model import resolve_extraction_pipeline
    from repro.pipeline.session import ResolutionSession
    from repro.serving import ServingEngine

    model = ResolverModel.load(args.model)
    model.config = _apply_overrides(model.config, args)
    collection = _load_or_generate(args)
    try:
        pipeline = resolve_extraction_pipeline(collection)
    except ValueError as error:
        print(f"cannot serve: {error}", file=sys.stderr)
        return 2
    if args.threads < 1:
        print(f"cannot serve: threads must be >= 1, got {args.threads}",
              file=sys.stderr)
        return 2
    concurrent = args.threads > 1 or args.swap_model
    knobs = dict(pipeline=pipeline, max_blocks=args.max_blocks,
                 model_block=args.model_block)
    if concurrent:
        server = ServingEngine(
            model, batch_window=max(0.0, args.batch_window) / 1000.0, **knobs)
    else:
        server = ResolutionSession(model, **knobs)
    try:
        blocks, stream = _serve_traffic(server, collection, args.requests)
    except KeyError as error:
        print(f"cannot serve: {error.args[0]}", file=sys.stderr)
        return 2
    if concurrent:
        return _serve_concurrently(args, server, blocks, stream)

    print(f"warmed {blocks} blocks "
          f"({server.stats.pages} pages); streaming up to "
          f"{args.requests} single-page requests")
    rows = []
    for page in stream:
        started = time.perf_counter()
        assignment = server.resolve(page)[0]
        latency_ms = (time.perf_counter() - started) * 1000
        rows.append([
            surname(page.query_name), page.doc_id,
            "new entity" if assignment.created_new_cluster
            else f"entity #{assignment.cluster_index}",
            f"{assignment.link_probability:.3f}", f"{latency_ms:.1f}",
        ])
    print(format_table(
        ["name", "page", "decision", "P(link)", "ms"], rows,
        title=f"Served {len(rows)} requests"))
    print(server.stats.summary())
    return 0


def _serve_concurrently(args: argparse.Namespace, engine, blocks: int,
                        stream: list) -> int:
    """``serve --threads N``: drive a ServingEngine with closed-loop load."""
    from repro.serving import LoadRequest, run_load

    requests = [LoadRequest(pages=[page]) for page in stream]
    swap_plan = None
    if args.swap_model:
        swap_plan = {max(1, len(requests) // 2):
                     ResolverModel.load(args.swap_model)}
    print(f"warmed {blocks} blocks ({engine.stats.pages} pages); "
          f"offering {len(requests)} single-page requests from "
          f"{args.threads} closed-loop threads "
          f"(batch window {args.batch_window:.1f}ms"
          + (", hot swap at halfway)" if swap_plan else ")"))
    report = run_load(engine, requests, threads=args.threads,
                      swap_plan=swap_plan)
    print(format_table(
        ["requests", "failed", "QPS", "p50 ms", "p95 ms", "p99 ms"],
        [[str(report.completed), str(report.failed), f"{report.qps:.1f}",
          f"{report.p50_seconds * 1000:.2f}",
          f"{report.p95_seconds * 1000:.2f}",
          f"{report.p99_seconds * 1000:.2f}"]],
        title=f"Load report ({args.threads} threads)"))
    print(engine.stats.summary())
    if report.failed:
        for error in report.errors[:3]:
            print(f"failed request: {error}", file=sys.stderr)
        return 1
    return 0


def cmd_resolve(args: argparse.Namespace) -> int:
    context = _context(args, input_path=args.input_path)
    resolver = EntityResolver(_apply_overrides(
        table2_config(args.column) if args.column != "default"
        else ResolverConfig(), args))
    rows = []
    seeds = _seeds(args, context)
    for block in context.collection:
        reports = []
        chosen = None
        block_graphs = context.graphs_by_name[block.query_name]
        for seed in seeds:
            block_model = resolver.fit(block, training_seed=seed,
                                       graphs=block_graphs)
            resolution = block_model.evaluate_block(block,
                                                    graphs=block_graphs)
            reports.append(resolution.report)
            chosen = resolution.chosen_layer
        from repro.metrics.report import mean_report
        mean = mean_report(reports)
        rows.append([surname(block.query_name), mean.fp, mean.f1, mean.rand,
                     chosen or "-"])
    print(format_table(["name", "Fp", "F", "Rand", "layer (last run)"], rows,
                       title=f"Resolution ({args.column}, {args.runs} runs)"))
    _print_stats(context.stats)
    return 0


def cmd_figure1(args: argparse.Namespace) -> int:
    context = _context(args, which="www05")
    query_name = None
    if args.name:
        matches = [name for name in context.collection.query_names()
                   if name.endswith(args.name)]
        if not matches:
            print(f"no block matching {args.name!r}", file=sys.stderr)
            return 2
        query_name = matches[0]
    points = figure1_series(context, function_name=args.function,
                            query_name=query_name, method=args.method)
    print(format_region_series(
        points, title=f"Figure 1 — {args.function}, {args.method} regions"))
    return 0


def _figure_comparison(args: argparse.Namespace, which: str,
                       title: str) -> int:
    context = _context(args, which=which)
    series = per_function_series(context, _seeds(args, context))
    for metric in PAPER_METRICS:
        chart = {label: report.get(metric)
                 for label, report in series.items()}
        print(format_bar_chart(chart, title=f"{title} — {metric}"))
        print()
    return 0


def cmd_figure2(args: argparse.Namespace) -> int:
    return _figure_comparison(args, "www05", "Figure 2 (WWW'05-like)")


def cmd_figure3(args: argparse.Namespace) -> int:
    return _figure_comparison(args, "weps2", "Figure 3 (WePS-like)")


def cmd_table2(args: argparse.Namespace) -> int:
    contexts = {
        "WWW'05": _context(args, which="www05"),
        "WePS": _context(args, which="weps2"),
    }
    seeds = _seeds(args, contexts["WWW'05"])
    table = table2(contexts, seeds)
    rows = []
    for dataset in table.datasets():
        for metric in ("fp", "f1", "rand"):
            rows.append([dataset, metric] + [
                table.get(dataset, metric, column)
                for column in TABLE2_COLUMNS])
    print(format_table(["dataset", "metric"] + list(TABLE2_COLUMNS), rows,
                       title="Table II — comparison of results"))
    return 0


def cmd_table3(args: argparse.Namespace) -> int:
    context = _context(args, which="www05")
    table = table3(context, _seeds(args, context))
    rows = [[name] + [table.get(name, column) for column in table.columns]
            for name in table.names()]
    print(format_table(["name"] + list(table.columns), rows,
                       title="Table III — Fp per name"))
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    context = _context(args)
    rows = []
    for profile in profile_collection(context):
        rows.append([
            profile.label, profile.n_pages, profile.n_persons,
            profile.dominance, profile.singleton_fraction,
            profile.feature_availability["organizations"],
            profile.function_entropy["F8"],
        ])
    print(format_table(
        ["name", "pages", "persons", "dominance", "singletons",
         "org-avail", "F8-entropy"],
        rows, title="Dataset profile"))
    return 0


_COMMANDS = {
    "generate": cmd_generate,
    "fit": cmd_fit,
    "predict": cmd_predict,
    "serve": cmd_serve,
    "pipeline": cmd_pipeline,
    "resolve": cmd_resolve,
    "figure1": cmd_figure1,
    "figure2": cmd_figure2,
    "figure3": cmd_figure3,
    "table2": cmd_table2,
    "table3": cmd_table3,
    "analyze": cmd_analyze,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
