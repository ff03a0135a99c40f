"""The repo's one benchmark: ``python3 bench/run.py --workload NAME``.

Prints every metric by name with its unit, runs the correctness checks,
writes a self-describing record to ``bench/out/`` and ends with one JSON
line ``{"correct", "attempted", "failed", "metrics"}`` — the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")

#: Discarded warm-up repetitions, and the fewest timed ones a run keeps
#: however slow the host is.
WARMUP_REPS = 1
MIN_REPS = 3
#: Repetitions of a ``--trace 1`` run: untraced and traced alternate.
TRACE_REP_PAIRS = 3


def scrub_environment() -> list[str]:
    """Pin numeric libraries to one thread and drop every ``REPRO_*``
    knob, before numpy or repro are imported.  Returns the dropped names."""
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    scrubbed = sorted(name for name in os.environ
                      if name.startswith("REPRO_"))
    for name in scrubbed:
        del os.environ[name]
    return scrubbed


def git_commit() -> str:
    """HEAD's commit id read from ``.git`` (no subprocess); the driver's
    checkout is not a repository, so ``"unknown"`` is a normal answer."""
    git_dir = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git_dir, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git_dir, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git_dir, "packed-refs"),
                  encoding="utf-8") as handle:
            for line in handle:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def describe(args, scrubbed, sizes, reps) -> dict:
    import numpy

    import clock
    import workloads
    return {
        "commit": git_commit(),
        "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "backend": workloads.BACKEND,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": sizes,
        "reps": reps,
        "cal_nominal_s": clock.CAL_NOMINAL_S,
        "scrubbed_env": scrubbed,
    }


def run_reps(workload, clock, tracer, seconds: float) -> list[dict]:
    """Warm up, then repeat until ``seconds`` of measuring are used."""
    for _ in range(WARMUP_REPS):
        workload.rep(clock, tracer)
    reps: list[dict] = []
    started = time.perf_counter()
    while True:
        reps.append(workload.rep(clock, tracer))
        del reps[-1]["handle"]  # the model / engine must not outlive its rep
        elapsed = time.perf_counter() - started
        if len(reps) >= MIN_REPS and elapsed + elapsed / len(reps) > seconds:
            return reps


def end_to_end(reps: list[dict]) -> dict:
    """The gated metrics: medians over repetitions, on the calibrated
    clock; latency percentiles are taken per repetition first."""
    import resource

    from clock import median, percentile
    return {
        "setup_s": median(rep["setup_s"] for rep in reps),
        "pages_per_s": median(rep["pages"] / rep["region_s"] for rep in reps),
        "p50_ms": median(percentile(rep["lat_ms"], 50) for rep in reps),
        "p95_ms": median(percentile(rep["lat_ms"], 95) for rep in reps),
        "bcubed_f1": median(rep["bcubed_f1"] for rep in reps),
        "fp_measure": median(rep["fp"] for rep in reps),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0),
    }


def harness_layers(reps, clock, import_s, failed, attempted) -> dict:
    """Per-layer metrics of the harness itself (host-noise diagnosis)."""
    from clock import median, percentile, relative_iqr
    return {
        "raw.pages_per_s": median(rep["pages"] / rep["region_raw_s"]
                                  for rep in reps),
        "raw.p50_ms": median(percentile(rep["lat_raw_ms"], 50)
                             for rep in reps),
        "raw.p95_ms": median(percentile(rep["lat_raw_ms"], 95)
                             for rep in reps),
        "raw.setup_s": median(rep["setup_raw_s"] for rep in reps),
        "clock.cal_factor_p50": median(clock.factors),
        "clock.cal_factor_iqr": relative_iqr(clock.factors),
        "clock.cal_share": clock.kernel_seconds / (clock.kernel_seconds
                                                   + clock.slice_seconds),
        "startup.import_s": import_s,
        "run.reps": len(reps),
        "run.rep_spread": relative_iqr([rep["pages"] / rep["region_s"]
                                        for rep in reps]),
        "failed_share": failed / attempted,
    }


def with_units(values: dict, listed: list[dict]) -> dict:
    """``{name: {"value", "unit"}}`` in BENCHMARK.json's order and units.

    Raises:
        RuntimeError: when the harness and BENCHMARK.json disagree on
            which metrics exist.
    """
    names = [entry["name"] for entry in listed]
    if set(names) != set(values):
        raise RuntimeError("BENCHMARK.json and the harness disagree on: "
                           f"{sorted(set(names) ^ set(values))}")
    return {entry["name"]: {"value": values[entry["name"]],
                            "unit": entry["unit"]} for entry in listed}


def run_workload(args, spec, scrubbed, import_s) -> dict:
    """One run of one workload; returns the result record."""
    from pathlib import Path

    import clock as clock_module
    import layers
    from workloads import WORKLOADS

    os.makedirs(OUT_DIR, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, Path(OUT_DIR))
    workload.build_fixture()
    # The fixture (corpus, features, truth, schedule) is the harness's own
    # and lives for the whole run.  Unfrozen, every full collection walks
    # it: a ~13 ms pause that lands on another request with every seed and
    # moved serve_burst's p50_ms / p95_ms by 7-8 % from seed to seed (2-3 %
    # frozen).  The model and engine of each repetition stay collectable.
    gc.collect()
    gc.freeze()

    tracer = clock_module.Tracer(enabled=bool(args.trace))
    clock = clock_module.CalibratedClock(tracer=tracer)
    clock.calibrate(0.2)  # the kernel's own warm-up
    if args.trace:
        reps, layer_metrics, trace_failed, trace_attempted = layers.trace_run(
            workload, clock, tracer, TRACE_REP_PAIRS,
            [entry["name"] for entry in spec["per_layer"]])
    else:
        reps = run_reps(workload, clock, tracer, args.seconds)
        layer_metrics, trace_failed, trace_attempted = {}, 0, 0

    attempted = sum(rep["attempted"] for rep in reps) + trace_attempted
    failed = sum(rep["failed"] for rep in reps) + trace_failed
    # quality and the partition itself must repeat exactly across reps
    attempted += 1
    failed += len({(rep["digest"], rep["bcubed_f1"], rep["fp"])
                   for rep in reps}) != 1

    per_layer = {**layer_metrics,
                 **harness_layers(reps, clock, import_s, failed, attempted)}
    if args.trace:
        tracer.write_jsonl(os.path.join(OUT_DIR,
                                        f"trace-{args.workload}.jsonl"))
        metrics = with_units(per_layer, spec["per_layer"])
    else:
        metrics = with_units(end_to_end(reps), spec["end_to_end"])
    record = describe(args, scrubbed, workload.sizes, len(reps))
    record.update({"correct": failed == 0, "attempted": attempted,
                   "failed": failed, "metrics": metrics})
    if not args.trace:
        record["diagnostics"] = per_layer
    suffix = "-trace" if args.trace else ""
    with open(os.path.join(OUT_DIR, f"result-{args.workload}{suffix}.json"),
              "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2)
    return record


def print_record(record: dict) -> None:
    for name, entry in record["metrics"].items():
        print(f"{name:36s} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({key: record[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))


def stop_children() -> None:
    """Stop every process this run started and wait until each has ended.

    The traced ``batch_deep`` run publishes shared-memory shards, which
    starts multiprocessing's resource tracker; left alone it outlives
    the benchmark by a moment.  Anything else still a child here (a pool
    worker after an exception) is killed and reaped the same way.
    """
    import signal
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:
        tracker._resource_tracker._stop()  # closes its pipe, then waitpid
    me = str(os.getpid())
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8") as handle:
                ppid = handle.read().rpartition(")")[2].split()[1]
            if ppid != me:
                continue
            os.kill(int(entry), signal.SIGKILL)
            os.waitpid(int(entry), 0)
        except OSError:
            continue  # gone already, or reaped by its owner


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=13)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time (default: BENCHMARK.json's "
                             "run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat-check", action="store_true",
                        help="run every workload twice and compare the two "
                             "sets against the bounds")
    parser.add_argument("--runs", type=int, default=1,
                        help="with --repeat-check: runs per workload and "
                             "set, each on another seed (the driver uses 10)")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("bench/run.py: src/repro not found; run from a full checkout",
              file=sys.stderr)
        return 2

    scrubbed = scrub_environment()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    started = time.perf_counter()
    import workloads  # noqa: F401  (pulls in every repro layer it drives)
    import_s = time.perf_counter() - started

    if args.repeat_check:
        import repeat
        return repeat.repeat_check(args, spec)
    names = [entry["name"] for entry in spec["workloads"]]
    if args.workload not in names:
        parser.error(f"--workload must be one of {names}")
    try:
        record = run_workload(args, spec, scrubbed, import_s)
    finally:
        stop_children()
    print_record(record)
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
