"""``python3 bench/run.py --repeat-check``: does the benchmark repeat?

Runs every workload twice over — two full sets, each run a fresh process
— and compares the sets the way the driver does: per end-to-end metric,
the second set's median may not be worse than the first's by more than
the metric's bound, and (with ``--runs`` >= 4, each run on another seed)
the interquartile spread of a set may not exceed the bound either.
Writes ``bench/out/repeatability.json``.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def one_run(workload: str, seed: int, seconds: float) -> dict:
    """Run one workload in a child process; return its result line, the
    harness diagnostics of its result file folded into ``metrics``."""
    completed = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=180, check=False)
    if completed.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{completed.returncode}: {completed.stderr[-500:]}")
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    with open(os.path.join(BENCH_DIR, "out", f"result-{workload}.json"),
              encoding="utf-8") as handle:
        for name, value in json.load(handle)["diagnostics"].items():
            result["metrics"][name] = {"value": value}
    return result


def spread(values: list[float]) -> float:
    """(Q3 - Q1) / median, as ``statistics.quantiles(values, n=4)`` cuts."""
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


def worsening(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``
    (negative when it is better)."""
    change = (second - first) / first
    return change if better == "lower" else -change


def repeat_check(args, spec) -> int:
    names = [entry["name"] for entry in spec["workloads"]]
    sets = []
    for set_index in range(2):
        values: dict[str, dict[str, list[float]]] = {}
        for workload in names:
            for run in range(args.runs):
                result = one_run(workload, args.seed + run, args.seconds)
                if not result["correct"]:
                    raise RuntimeError(f"{workload}: {result['failed']} of "
                                       f"{result['attempted']} failed")
                for metric, entry in result["metrics"].items():
                    values.setdefault(workload, {}).setdefault(
                        metric, []).append(entry["value"])
            print(f"set {set_index + 1}: {workload} done", flush=True)
        sets.append(values)

    rows = []
    exceeded = False
    for workload in names:
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            first = statistics.median(sets[0][workload][name])
            second = statistics.median(sets[1][workload][name])
            row = {
                "workload": workload, "metric": name, "bound": bound,
                "first": first, "second": second,
                "difference": abs(second - first) / first,
                "worsening": worsening(first, second, metric["better"]),
            }
            row["within_bound"] = row["worsening"] <= bound
            if args.runs >= 4:
                row["spread"] = [spread(values[workload][name])
                                 for values in sets]
                # the driver exempts setup_s from the spread rule
                if name != "setup_s":
                    row["within_bound"] &= max(row["spread"]) <= bound
            exceeded |= not row["within_bound"]
            rows.append(row)
            spreads = "".join(f" spread {value:.4f}"
                              for value in row.get("spread", []))
            print(f"{workload:13s} {name:12s} {first:12.6g} -> "
                  f"{second:12.6g}  diff {row['difference']:.4f} of bound "
                  f"{bound}{spreads}"
                  f"{'' if row['within_bound'] else '  EXCEEDED'}")

    if args.runs >= 4:
        print("spread of pages_per_s, calibrated vs raw clock:")
        for workload in names:
            for index, values in enumerate(sets):
                print(f"{workload:13s} set {index + 1}  calibrated "
                      f"{spread(values[workload]['pages_per_s']):.4f}  raw "
                      f"{spread(values[workload]['raw.pages_per_s']):.4f}")

    out_dir = os.path.join(BENCH_DIR, "out")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "repeatability.json"), "w",
              encoding="utf-8") as handle:
        json.dump({"seed": args.seed, "runs_per_set": args.runs,
                   "seconds": args.seconds, "within_bounds": not exceeded,
                   "rows": rows, "sets": sets}, handle, indent=2)
    return 1 if exceeded else 0
