#!/bin/bash
# End-to-end smoke test for the tcsim_sweep binary, driven by ctest:
#
#  1. single-process run, and the same at TCSIM_JOBS=4, which must be
#     byte-identical,
#  2. rerun — must be byte-identical, and full units look nothing up
#     in the artifact cache,
#  3. 2-shard run with worker 0 SIGKILLed after one unit, --check
#     reporting the lost unit, a --worklist retry, and a --merge that
#     must reproduce the single-process document byte for byte,
#  4. a 2-shard --replay sweep whose merge must equal its
#     single-process document; that run reads the btraces the shards
#     stored, and every cache lookup must hit (hits change wall-clock
#     only, never results),
#  5. tools/validate_obs.py over every fragment and merged document,
#  6. `tcsim_regress` self-compare (clean, exit 0) and against a
#     perturbed current run (regression, exit 5), both reports valid.
#
# Usage: sweep_smoke.sh <cmake-build-dir>
set -eu

bin="$1/tools/tcsim_sweep"
regress="$1/tools/tcsim_regress"
validate="$(cd "$(dirname "$0")/.." && pwd)/tools/validate_obs.py"
for b in "$bin" "$regress"; do
    [ -x "$b" ] || { echo "missing binary: $b" >&2; exit 1; }
done
scratch=$(mktemp -d)
trap 'rm -rf "$scratch"' EXIT

margs=(--benchmarks compress,li --configs baseline,promotion-t64
       --insts 20000 --warmup 5000 --cache-dir "$scratch/cache")

echo "== single-process reference, one job against four =="
TCSIM_JOBS=1 "$bin" "${margs[@]}" --out "$scratch/single.json"
TCSIM_JOBS=4 "$bin" "${margs[@]}" --out "$scratch/jobs4.json"
cmp "$scratch/single.json" "$scratch/jobs4.json"

echo "== rerun: byte-identical, no cache lookups for full units =="
"$bin" "${margs[@]}" --out "$scratch/rerun.json" \
       --timing-out "$scratch/timing.json"
cmp "$scratch/single.json" "$scratch/rerun.json"
python3 - "$scratch/timing.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["schema"] == "tcsim-bench-timing-v1", doc["schema"]
cache = doc["cache"]
assert cache["enabled"], cache
assert cache["hits"] == 0 and cache["misses"] == 0, cache
EOF

echo "== shard 0/2 with injected SIGKILL =="
if "$bin" "${margs[@]}" --shard 0/2 \
       --fragments-dir "$scratch/frags" --die-after 1; then
    echo "worker 0 should have been killed" >&2
    exit 1
fi

echo "== shard 1/2 runs to completion =="
"$bin" "${margs[@]}" --shard 1/2 --fragments-dir "$scratch/frags"

echo "== check reports the lost unit =="
rc=0
"$bin" "${margs[@]}" --check --fragments-dir "$scratch/frags" \
       > "$scratch/missing.txt" || rc=$?
[ "$rc" -eq 2 ] || { echo "expected check exit 2, got $rc" >&2; exit 1; }
[ -s "$scratch/missing.txt" ] || { echo "no missing units listed" >&2; exit 1; }

echo "== worklist retry fills the hole =="
"$bin" "${margs[@]}" --worklist "$scratch/missing.txt" \
       --fragments-dir "$scratch/frags"
"$bin" "${margs[@]}" --check --fragments-dir "$scratch/frags"

echo "== merge is byte-identical to single-process =="
"$bin" "${margs[@]}" --merge --fragments-dir "$scratch/frags" \
       --out "$scratch/merged.json"
cmp "$scratch/single.json" "$scratch/merged.json"

echo "== 2-shard replay sweep merges byte-identically =="
rargs=(--benchmarks compress,li --configs baseline,promo-pack-unregulated
       --insts 20000 --replay --cache-dir "$scratch/cache")
for shard in 0 1; do
    "$bin" "${rargs[@]}" --shard "$shard/2" \
           --fragments-dir "$scratch/replay-frags"
done
"$bin" "${rargs[@]}" --merge --fragments-dir "$scratch/replay-frags" \
       --out "$scratch/replay-merged.json"
"$bin" "${rargs[@]}" --out "$scratch/replay-single.json" \
       --timing-out "$scratch/replay-timing.json"
cmp "$scratch/replay-single.json" "$scratch/replay-merged.json"
python3 - "$scratch/replay-timing.json" <<'EOF'
import json, sys
cache = json.load(open(sys.argv[1]))["cache"]
assert cache["enabled"], cache
assert cache["hits"] > 0 and cache["misses"] == 0, cache
EOF

echo "== fragments and merged documents validate =="
python3 "$validate" \
    --fragment "$scratch"/frags/*.json "$scratch"/replay-frags/*.json \
    --results "$scratch/merged.json" "$scratch/replay-merged.json"

echo "== regress self-compare is clean =="
"$regress" --baseline "$scratch/merged.json" \
           --current "$scratch/merged.json" \
           --out "$scratch/regress-clean.json"
python3 "$validate" --regression "$scratch/regress-clean.json"

echo "== regress flags an injected IPC loss with exit 5 =="
python3 - "$scratch/merged.json" "$scratch/perturbed.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
doc["results"][0]["ipc"] *= 0.9
json.dump(doc, open(sys.argv[2], "w"))
EOF
rc=0
"$regress" --baseline "$scratch/merged.json" \
           --current "$scratch/perturbed.json" \
           --out "$scratch/regress-bad.json" || rc=$?
[ "$rc" -eq 5 ] || { echo "expected regress exit 5, got $rc" >&2; exit 1; }
python3 "$validate" --regression "$scratch/regress-bad.json"
python3 - "$scratch/regress-bad.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["regressed"] is True, doc
bad = [u for u in doc["units"] if u["regressed"]]
assert len(bad) == 1, bad
assert any(m["name"] == "ipc" and m["regressed"] for m in bad[0]["metrics"])
EOF

echo "sweep smoke OK"
