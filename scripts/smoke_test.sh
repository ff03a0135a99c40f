#!/usr/bin/env sh
# Smoke test: generate a tiny dataset, fit a resolver model, predict with
# it (labels unused), and score the predictions — serially and through
# the process-pool executor (--workers 2), which must agree.  Inspect
# the stage plans (pipeline explain) and run the online serving demo
# loop (serve), serially and through the concurrent ServingEngine
# (serve --threads 4, with a mid-stream hot swap).  Exercise the
# generic blocking path (--blocker token) with serial/parallel fit
# parity.  Round-trip a streamed scale corpus (generate --dataset scale
# -> jsonl -> fit -> predict).  Regenerate the golden fixtures and fail
# on any diff.  Then run the runtime, serving and
# scaling benchmarks at smoke scale and verify they emit well-formed
# benchmarks/out/BENCH_runtime.json / BENCH_scaling.json.  Exercises the
# full fit -> save -> predict -> serve lifecycle plus the execution
# engine through the CLI in under a minute.
#
# Usage: sh scripts/smoke_test.sh
set -eu

cd "$(dirname "$0")/.."
workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT

run() {
    PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m repro.cli \
        --pages 12 --seed 3 "$@"
}

echo "== serving/ reads no session internals =="
# The engine only schedules ResolutionSession.admit / process; a private
# access from serving/ means the request path is forking again.
if grep -rnE "session\._[a-z]|ResolutionSession\._" src/repro/serving; then
    echo "serving/ reaches into ResolutionSession privates" >&2; exit 1
fi

echo "== pipeline/ schedules nothing itself =="
# Stages build block payloads and hand them to run_block_tasks; a stage
# that asks whether the executor is serial is growing a second copy of
# a task body.
if grep -rnE "is_serial|_run_serial|_run_parallel" src/repro/pipeline; then
    echo "pipeline/ forks on the schedule again" >&2; exit 1
fi

echo "== generate =="
run generate --out "$workdir/data.json"

echo "== generate --dataset scale (streamed jsonl) + fit/predict round trip =="
# The scale path streams blocks straight to disk (block-per-line JSONL)
# and records the synthesized vocabulary sizes in the header metadata so
# fit/predict rebuild the exact lexicon from the file alone.
run generate --dataset scale --names 4 --collision 0.5 \
    --out "$workdir/scale.jsonl" | tee "$workdir/scale_generate.out"
grep -q "streamed jsonl" "$workdir/scale_generate.out" || {
    echo "scale generate did not stream jsonl" >&2; exit 1; }
head -n 1 "$workdir/scale.jsonl" | grep -q '"jsonl-blocks"' || {
    echo "scale.jsonl lacks the jsonl-blocks header" >&2; exit 1; }
run fit --in "$workdir/scale.jsonl" --model "$workdir/model_scale.json"
run predict --in "$workdir/scale.jsonl" \
    --model "$workdir/model_scale.json" --evaluate

echo "== fit =="
run fit --in "$workdir/data.json" --model "$workdir/model.json"

echo "== predict (unlabeled serving path) =="
run predict --in "$workdir/data.json" --model "$workdir/model.json"

echo "== predict --evaluate =="
run predict --in "$workdir/data.json" --model "$workdir/model.json" --evaluate

echo "== pipeline explain =="
run pipeline explain | grep -q "Corpus" || {
    echo "pipeline explain did not print the artifact chain" >&2; exit 1; }
run pipeline explain

echo "== serve (ResolutionSession demo loop) =="
run serve --in "$workdir/data.json" --model "$workdir/model.json" \
    --requests 6 | tee "$workdir/serve.out"
grep -q "\[session\]" "$workdir/serve.out" || {
    echo "serve did not print a session summary" >&2; exit 1; }

echo "== serve --threads 4 (concurrent ServingEngine) =="
# A second fit (different seed) doubles as the hot-swap generation; the
# engine must finish every request, report latency percentiles, and
# perform exactly one swap.
run --seed 4 fit --in "$workdir/data.json" --model "$workdir/model_b.json"
run serve --in "$workdir/data.json" --model "$workdir/model.json" \
    --requests 16 --threads 4 --batch-window 2 \
    --swap-model "$workdir/model_b.json" | tee "$workdir/serve_mt.out"
grep -q "Load report (4 threads)" "$workdir/serve_mt.out" || {
    echo "concurrent serve did not print a load report" >&2; exit 1; }
grep -q "\[engine\]" "$workdir/serve_mt.out" || {
    echo "concurrent serve did not print an engine summary" >&2; exit 1; }
grep -q "p99" "$workdir/serve_mt.out" || {
    echo "concurrent serve did not report latency percentiles" >&2; exit 1; }
grep -q "1 swaps" "$workdir/serve_mt.out" || {
    echo "concurrent serve did not hot-swap the model" >&2; exit 1; }
grep -q "^16  *0  " "$workdir/serve_mt.out" || {
    echo "concurrent serve lost requests" >&2; exit 1; }

echo "== fit/predict --workers 2 + --backend numpy (engine parity) =="
# Comparing fits across *separate interpreter processes* needs a pinned
# hash seed: downstream stages still iterate sets, and per-process hash
# randomization can permute float additions in the last ulp.  (Within
# one process, serial vs parallel vs either scoring backend is
# bit-identical without this — pool workers fork and inherit the
# parent's hash seed, and backends share a canonical fold order.)
( export PYTHONHASHSEED=0
  run fit --in "$workdir/data.json" --model "$workdir/model_serial.json"
  run --workers 2 fit --in "$workdir/data.json" \
      --model "$workdir/model_workers2.json"
  run --backend numpy fit --in "$workdir/data.json" \
      --model "$workdir/model_numpy.json" )
run --workers 2 predict --in "$workdir/data.json" \
    --model "$workdir/model_workers2.json" --evaluate
run --backend numpy predict --in "$workdir/data.json" \
    --model "$workdir/model_numpy.json" --evaluate
# Parallel fitting and the vectorized backend must learn exactly the
# serial model (fitted state is JSON, so byte-compare the block
# payloads).
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python - "$workdir" <<'PY'
import json, sys
serial = json.load(open(sys.argv[1] + "/model_serial.json"))
parallel = json.load(open(sys.argv[1] + "/model_workers2.json"))
vectorized = json.load(open(sys.argv[1] + "/model_numpy.json"))
assert serial["blocks"] == parallel["blocks"], \
    "serial and --workers 2 fits diverged"
assert serial["blocks"] == vectorized["blocks"], \
    "python and numpy backend fits diverged"
print("serial, --workers 2 and --backend numpy fitted state identical")
PY

echo "== fit/predict --blocker token (generic blocking path) =="
# Generic blocking re-blocks the corpus into candidate components and
# scores only candidate pairs; serial and --workers 2 fits must still
# learn the identical model, and the saved blocker choice must drive
# the predict pass.
( export PYTHONHASHSEED=0
  run --blocker token fit --in "$workdir/data.json" \
      --model "$workdir/model_token.json"
  run --blocker token --workers 2 fit --in "$workdir/data.json" \
      --model "$workdir/model_token_w2.json" )
run predict --in "$workdir/data.json" \
    --model "$workdir/model_token.json" --evaluate
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python - "$workdir" <<'PY'
import json, sys
serial = json.load(open(sys.argv[1] + "/model_token.json"))
parallel = json.load(open(sys.argv[1] + "/model_token_w2.json"))
assert serial["config"]["blocker"] == "token", \
    "--blocker token was not saved into the fitted model"
assert serial["blocks"] == parallel["blocks"], \
    "--blocker token serial and --workers 2 fits diverged"
assert all(name.startswith("~block:") for name in serial["blocks"]), \
    "token blocking did not produce synthetic candidate components"
print("--blocker token fitted state identical across executors")
PY

echo "== golden fixtures regenerate with no diff =="
# The goldens freeze similarity values computed from extracted features;
# an extraction or scoring change that moves a single bit shows up here
# as a diff (an intentional one is committed with its change).
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python scripts/regenerate_goldens.py
git diff --exit-code tests/data/golden || {
    echo "regenerated goldens differ from the committed ones" >&2; exit 1; }

echo "== runtime benchmark emits BENCH_runtime.json =="
REPRO_BENCH_PAGES=16 REPRO_BENCH_RUNS=2 \
    PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" \
    python -m pytest benchmarks/test_bench_runtime.py -q
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python - <<'PY'
import json, sys
try:
    payload = json.load(open("benchmarks/out/BENCH_runtime.json"))
except (OSError, json.JSONDecodeError) as error:
    sys.exit(f"BENCH_runtime.json missing or malformed: {error}")
runs = payload.get("runs")
if payload.get("benchmark") != "runtime" or not runs:
    sys.exit("BENCH_runtime.json has no runtime runs")
last = runs[-1]
for key in ("speedup_vs_seed", "seed_path_seconds",
            "engine_parallel_seconds", "serving_cache_hit_rate",
            "deterministic", "backend_speedup_ratio",
            "backends_bit_identical", "blocking_reduction_ratio",
            "blocking_pair_completeness", "masked_speedup_ratio",
            "masked_matches_dense", "prepare_cache_hit_rate",
            "requested_workers", "effective_workers", "available_cores",
            "host_cores", "cpuset_limited", "fork_waves",
            "parallel_speedup_ratio"):
    if key not in last:
        sys.exit(f"BENCH_runtime.json record lacks {key!r}")
if not last["deterministic"]:
    sys.exit("runtime bench recorded a non-deterministic run")
if last["effective_workers"] != min(last["requested_workers"],
                                    last["available_cores"]):
    sys.exit("effective_workers does not honor the core cap")
if last["available_cores"] > 1 and last["effective_workers"] == 1:
    sys.exit(f"--workers {last['requested_workers']} degraded to serial "
             f"with {last['available_cores']} cores available")
if not last["prepare_cache_hit_rate"] > 0.0:
    sys.exit("retained prepare cache served no predict calls")
if not last["backends_bit_identical"]:
    sys.exit("runtime bench recorded diverging scoring backends")
if last["blocking_pair_completeness"] != 1.0:
    sys.exit("query-name blocking lost true pairs on the mixed universe")
if not last["masked_matches_dense"]:
    sys.exit("masked scoring diverged from dense scoring")
print(f"BENCH_runtime.json OK: {len(runs)} run(s), last speedup "
      f"{last['speedup_vs_seed']:.2f}x, backend ratio "
      f"{last['backend_speedup_ratio']:.2f}x, masked ratio "
      f"{last['masked_speedup_ratio']:.2f}x")
PY

echo "== serving benchmark records a serving scenario =="
# Smoke scale gates the QPS comparison off (needs scoring-bound
# requests); serial-replay bit-identity and the hot swap still assert.
REPRO_BENCH_SERVING_PAGES=24 REPRO_BENCH_SERVING_REPS=1 \
    REPRO_BENCH_SERVING_THREADS=4 \
    PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" \
    python -m pytest benchmarks/test_bench_serving.py -q
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python - <<'PY'
import json, sys
payload = json.load(open("benchmarks/out/BENCH_runtime.json"))
serving = [run for run in payload.get("runs", [])
           if run.get("scenario") == "serving"]
if not serving:
    sys.exit("BENCH_runtime.json has no serving scenario record")
last = serving[-1]
for key in ("single_thread_qps", "best_multi_thread_qps",
            "multi_over_single_qps_ratio", "runs", "mixed", "swap"):
    if key not in last:
        sys.exit(f"serving record lacks {key!r}")
for label, run in last["runs"].items():
    if not run["replay_identical"]:
        sys.exit(f"serving run {label} diverged from serial replay")
if last["swap"]["failed"] or not last["swap"]["replay_identical"]:
    sys.exit("hot swap lost requests or diverged from serial replay")
print(f"serving scenario OK: {len(last['runs'])} configs, "
      f"multi/single QPS ratio {last['multi_over_single_qps_ratio']:.2f}, "
      f"swap stall {last['swap']['swap_stall_seconds'] * 1000:.2f}ms")
PY

echo "== scaling benchmark emits BENCH_scaling.json =="
REPRO_BENCH_SCALE_SIZES=120,240,480 REPRO_BENCH_SCALE_PPN=8 \
    REPRO_BENCH_SCALE_BLOCKING_PAGES=120 \
    PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" \
    python -m pytest benchmarks/test_bench_scaling.py -q
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python - <<'PY'
import json, sys
try:
    payload = json.load(open("benchmarks/out/BENCH_scaling.json"))
except (OSError, json.JSONDecodeError) as error:
    sys.exit(f"BENCH_scaling.json missing or malformed: {error}")
runs = payload.get("runs")
if payload.get("benchmark") != "scaling" or not runs:
    sys.exit("BENCH_scaling.json has no scaling runs")
sizes = runs[-1]["sizes"]
if len(sizes) < 3:
    sys.exit("scaling sweep recorded fewer than 3 sizes")
for entry in sizes:
    for key in ("n_pages", "throughput_pages_per_second", "stage_seconds",
                "generation_stream_peak_bytes", "bcubed_f1_mean",
                "blocking"):
        if key not in entry:
            sys.exit(f"BENCH_scaling.json size entry lacks {key!r}")
peaks = [entry["generation_stream_peak_bytes"] for entry in sizes]
if max(peaks) > 2.5 * min(peaks):
    sys.exit(f"streaming generation peak memory grew with N: {peaks}")
print(f"BENCH_scaling.json OK: {len(sizes)} sizes up to "
      f"{sizes[-1]['n_pages']} pages, throughput "
      f"{sizes[-1]['throughput_pages_per_second']:.0f} pages/s")
PY

echo "smoke test OK"
