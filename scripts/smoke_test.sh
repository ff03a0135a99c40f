#!/usr/bin/env sh
# Smoke test: generate a tiny dataset, fit a resolver model, predict with
# it (labels unused), and score the predictions — serially and through
# the process-pool executor (--workers 2), which must agree.  Run the
# online serving demo loop (serve), serially and through the concurrent
# ServingEngine
# (serve --threads 4, with a mid-stream hot swap).  Exercise the
# generic blocking path (--blocker token) with serial/parallel fit
# parity.  Round-trip a streamed scale corpus (generate --dataset scale
# -> jsonl -> fit -> predict).  Check a model fitted under a process
# config saves no schedule and no per-layer threshold.  Regenerate the golden fixtures and fail
# on any diff.  Exercises the full fit -> save -> predict -> serve
# lifecycle plus the execution engine through the CLI in under a minute.
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

echo "== the passes schedule nothing themselves =="
# fit and predict build block payloads and hand them to run_pass; a
# pass or the session asking whether the executor is serial is
# growing a second copy of a task body.
if grep -rnE "is_serial|_run_serial|_run_parallel" src/repro/pipeline \
        src/repro/core; then
    echo "a collection pass forks on the schedule again" >&2; exit 1
fi

echo "== one clock reader =="
# Every measurement goes through repro.runtime.stats (clock / Timer); a
# perf_counter anywhere else is a second, untracked stats surface.
if grep -rn --include='*.py' perf_counter src \
        | grep -v '^src/repro/runtime/stats\.py:'; then
    echo "perf_counter read outside src/repro/runtime/stats.py" >&2; exit 1
fi

echo "== one consumer =="
# The engine drains one admission-ordered queue; a per-name lane, a
# batch window or a lane-GC memory of batch sizes is a second scheduler.
if grep -rnE 'class _Lane|_batch_memory|batch_window' src/repro; then
    echo "a second serving scheduler in src/repro" >&2; exit 1
fi

echo "== one family constructor =="
# Every kernel input is a _FamilyRecord stacked by one _Family fill; a
# per-source constructor or a per-kind family class is a second path.
if grep -nE 'def from_plane|def from_record|class _(Vector|Set|Counter)Family' \
        src/repro/similarity/batch.py; then
    echo "a second family constructor in src/repro/similarity/batch.py" >&2
    exit 1
fi

echo "== extraction hands arrays, not kernel types =="
# Extraction returns PageFeatures and, from a TF-IDF block pass, plain
# arrays (BlockFeatures.tfidf_rows) that the kernels read; extraction/
# importing the kernels or the backends turns the layering around.
if grep -rnE '^\s*(from|import)\s+repro\.similarity\.(batch|backends)\b|^\s*from\s+repro\.similarity\s+import\s.*\b(batch|backends)\b' \
        src/repro/extraction; then
    echo "extraction/ imports repro.similarity.batch or .backends" >&2
    exit 1
fi

echo "== one graph form =="
# A similarity or decision graph is a layout and one vector over it; a
# mutator, an edge setter, a multigraph or a layer-probability setter
# brings back a second, mapping or set, form.
if grep -rnE 'def (set_weight|add_edge|remove_edge)\b|@edges\.setter|class DecisionMultiGraph|_set_layer_probabilities' \
        src/repro; then
    echo "a second graph form in src/repro" >&2; exit 1
fi

echo "== one union-find =="
# Closing a graph over node numbers on the list route goes through
# repro.graph.components.integer_roots; an inline parent-list loop
# anywhere else is a second union-find to keep in step.  A text match:
# NumpyRoute's batched parent-array closure (core/sweeps.py) is the
# one other closure, and a loop written differently would pass.
if grep -rn --include='*.py' 'while parent\[' src \
        | grep -v '^src/repro/graph/components\.py:'; then
    echo "an inline union-find outside src/repro/graph/components.py" >&2
    exit 1
fi

echo "== one collection pass =="
# fit and predict / evaluate block the collection and fan its blocks
# out through run_pass, one function and one RunStats per pass; a stage
# class, a plan, a stage registry or a plan= parameter is a second
# layer around them.
if [ -e src/repro/pipeline/stages.py ] \
        || grep -rnE 'class (Pipeline|Stage)\b|PipelineContext|StageStats|register_stage|STAGES =|plan=None' \
        src/repro; then
    echo "a stage-plan layer in src/repro" >&2; exit 1
fi

echo "== one wire format =="
# A worker reads the pickled chunk of payloads the pool's pipe carries;
# a plane codec, a float32 backend, a shard knob or a zombie list of
# open segments is a second format.
if [ -e src/repro/runtime/planes.py ] \
        || grep -rnE 'REPRO_SHARD_|numpy32|PlaneArena|approx32|_ZOMBIES' src; then
    echo "a second payload format in src/" >&2; exit 1
fi

echo "== the passes publish no shard =="
# A fan-out ships its blocks through the pool's pipe; the shard store
# is kept only for the frozen benchmark harness.  A package module that
# imports it or names ShardStore / load_shard puts shared memory back
# on the fan-out path.
if grep -rnE 'repro\.runtime\.shards|from (repro\.runtime|\.) import .*\bshards\b|from \.shards import|\b(ShardStore|load_shard)\b' \
        src/repro | grep -v '^src/repro/runtime/shards\.py:'; then
    echo "a package module reaches the shard store" >&2; exit 1
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
    --requests 16 --threads 4 \
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
# Each fit runs in its own interpreter under its own string-hash seed.
run fit --in "$workdir/data.json" --model "$workdir/model_serial.json"
run --workers 2 fit --in "$workdir/data.json" \
    --model "$workdir/model_workers2.json"
run --backend numpy fit --in "$workdir/data.json" \
    --model "$workdir/model_numpy.json"
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
run --blocker token fit --in "$workdir/data.json" \
    --model "$workdir/model_token.json"
run --blocker token --workers 2 fit --in "$workdir/data.json" \
    --model "$workdir/model_token_w2.json"
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

echo "== a saved model carries no schedule and one decision rule =="
# Fitted through the library under a process config: the schedule is a
# runtime choice (never saved), and a threshold layer is its region
# profile alone (no second, threshold, rule beside it).
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python - "$workdir" <<'PY'
import json, sys
from repro.core.config import ResolverConfig
from repro.core.resolver import EntityResolver
from repro.corpus.loaders import load_collection
path = sys.argv[1] + "/model_process.json"
collection = load_collection(sys.argv[1] + "/data.json")
config = ResolverConfig(executor="process", workers=2)
EntityResolver(config).fit(collection, training_seed=0).save(path)
payload = json.load(open(path))
leaked = {"executor", "workers", "oversubscribe"} & payload["config"].keys()
assert not leaked, f"saved config carries runtime keys: {sorted(leaked)}"
assert not any("threshold" in layer["fitted"]
               for block in payload["blocks"].values()
               for layer in block["layers"]), \
    "a saved layer carries a threshold beside its profile"
print("saved model: no runtime config key, no per-layer threshold")
PY

echo "== golden fixtures rebuild with no drift =="
# The goldens freeze similarity values computed from extracted features;
# an extraction or scoring change that moves a single bit shows up here
# as drift against the working-tree fixture (an intentional one is
# regenerated with its change).  Nothing is written.
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" \
    python scripts/regenerate_goldens.py --check

echo "smoke test OK"
