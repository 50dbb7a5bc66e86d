#!/bin/bash
# End-to-end smoke test for the tcsim_sweep binary, driven by ctest:
#
#  1. single-process run, and the same at TCSIM_JOBS=4, which must be
#     byte-identical,
#  2. rerun with fragments — byte-identical,
#  3. resume: a fragments directory seeded with shard 0/2's fragments
#     (one with a sentinel wall time), torn bytes under a shard-1
#     unit's name, a writer's temp file and another matrix's fragment;
#     the resumed --out must equal the single-process document and
#     leave the sentinel alone, a second run must simulate nothing,
#     and --merge must agree,
#  4. a 2-shard --replay sweep whose merge must equal its
#     single-process document,
#  5. a matrix that names one unit twice is an error in every mode,
#  6. tools/validate_obs.py over every fragment and merged document,
#     and its rejection of a fragment renamed away from its hash and
#     of fragments the merge calls corrupt (a counter array of the
#     wrong shape, a negative or fractional counter, no timing), each
#     of which also makes `tcsim_regress` exit 2,
#  7. `tcsim_regress` self-compare (clean, exit 0) with every unit's
#     wall time read from fragments, for the cycle and the replay
#     matrix, against a perturbed current run (regression, exit 5),
#     and against a missing or corrupt fragments directory (exit 2).
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
       --insts 20000 --warmup 5000)

echo "== single-process reference, one job against four =="
TCSIM_JOBS=1 "$bin" "${margs[@]}" --out "$scratch/single.json"
TCSIM_JOBS=4 "$bin" "${margs[@]}" --out "$scratch/jobs4.json"
cmp "$scratch/single.json" "$scratch/jobs4.json"

echo "== rerun with fragments: byte-identical =="
"$bin" "${margs[@]}" --fragments-dir "$scratch/rerun-frags" \
       --out "$scratch/rerun.json"
cmp "$scratch/single.json" "$scratch/rerun.json"

echo "== resume a killed run from its fragments =="
frags="$scratch/frags"
"$bin" "${margs[@]}" --shard 0/2 --fragments-dir "$frags"
hash_of() {
    "$bin" "${margs[@]}" --list | awk -v i="$1" '$1 == i { print $2 }'
}
h0=$(hash_of 0)
h1=$(hash_of 1)
h3=$(hash_of 3)
python3 - "$frags/$h0.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
doc["timing"]["wall_seconds"] = 4242.5
json.dump(doc, open(sys.argv[1], "w"), indent=2)
EOF
cp "$frags/$h0.json" "$scratch/sentinel.json"
printf '{\n  "schema": "tcsim-bench-frag' > "$frags/$h1.json"
printf '{\n  "schema": "tcsim-bench-fragment-v1",\n' \
       > "$frags/$h3.json.tmp.1.0"
"$bin" --benchmarks compress --configs baseline --insts 10000 \
       --shard 0/1 --fragments-dir "$frags"
"$bin" "${margs[@]}" --fragments-dir "$frags" --out "$scratch/resumed.json" \
       2> "$scratch/resume.log"
grep -q "resumed 2 of 4 units" "$scratch/resume.log"
cmp "$scratch/single.json" "$scratch/resumed.json"
cmp "$scratch/sentinel.json" "$frags/$h0.json"

echo "== running it again simulates nothing =="
"$bin" "${margs[@]}" --fragments-dir "$frags" --out "$scratch/again.json" \
       2> "$scratch/again.log"
grep -q "resumed 4 of 4 units" "$scratch/again.log"
grep -q "done: 0 units simulated" "$scratch/again.log"
cmp "$scratch/single.json" "$scratch/again.json"

echo "== merge is byte-identical to single-process =="
"$bin" "${margs[@]}" --merge --fragments-dir "$frags" \
       --out "$scratch/merged.json"
cmp "$scratch/single.json" "$scratch/merged.json"

echo "== 2-shard replay sweep merges byte-identically =="
rargs=(--benchmarks compress,li --configs baseline,promo-pack-unregulated
       --insts 20000 --replay)
for shard in 0 1; do
    "$bin" "${rargs[@]}" --shard "$shard/2" \
           --fragments-dir "$scratch/replay-frags"
done
"$bin" "${rargs[@]}" --merge --fragments-dir "$scratch/replay-frags" \
       --out "$scratch/replay-merged.json"
"$bin" "${rargs[@]}" --fragments-dir "$scratch/replay-single-frags" \
       --out "$scratch/replay-single.json"
cmp "$scratch/replay-single.json" "$scratch/replay-merged.json"

echo "== a matrix that names one unit twice is an error in every mode =="
for dup in "--benchmarks compress,compress --configs baseline" \
           "--benchmarks compress --configs baseline,baseline"; do
    for mode in "--list" "--out $scratch/dup.json" \
                "--shard 0/1 --fragments-dir $scratch/dup" \
                "--merge --fragments-dir $scratch/dup"; do
        rc=0
        # shellcheck disable=SC2086
        "$bin" $dup --insts 20000 $mode 2> "$scratch/dup.log" || rc=$?
        [ "$rc" -eq 1 ] || { echo "$dup $mode: exit $rc" >&2; exit 1; }
        grep -q "names unit compress@baseline@20000 twice" "$scratch/dup.log"
    done
done
[ ! -e "$scratch/dup.json" ] || { echo "dup.json written" >&2; exit 1; }
[ ! -e "$scratch/dup" ] || { echo "dup fragments written" >&2; exit 1; }

echo "== fragments and merged documents validate =="
python3 "$validate" \
    --fragment "$frags"/*.json "$scratch"/replay-frags/*.json \
    --results "$scratch/merged.json" "$scratch/replay-merged.json"

echo "== a fragment renamed away from its hash does not validate =="
mkdir "$scratch/renamed"
for f in "$frags"/*.json; do
    cp "$f" "$scratch/renamed/0000000000000000.json"
    break
done
rc=0
python3 "$validate" --fragment "$scratch/renamed/0000000000000000.json" ||
    rc=$?
[ "$rc" -ne 0 ] || { echo "renamed fragment validated" >&2; exit 1; }

echo "== a fragment the merge calls corrupt does not validate =="
for flaw in short-cycle-cat narrow-hist-row negative fraction no-timing; do
    dir="$scratch/$flaw"
    mkdir "$dir"
    python3 - "$frags/$h0.json" "$dir/$h0.json" "$flaw" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
result = doc["result"]
flaw = sys.argv[3]
if flaw == "short-cycle-cat":
    result["cycle_cat"] = result["cycle_cat"][:2]
elif flaw == "narrow-hist-row":
    result["fetch_hist"][0] = result["fetch_hist"][0][:3]
elif flaw == "negative":
    result["cycles"] = -1
elif flaw == "fraction":
    result["tc_lookups"] = 375.0
else:
    del doc["timing"]
json.dump(doc, open(sys.argv[2], "w"), indent=2)
EOF
    rc=0
    python3 "$validate" --fragment "$dir/$h0.json" 2> /dev/null || rc=$?
    [ "$rc" -ne 0 ] || { echo "$flaw fragment validated" >&2; exit 1; }
    rc=0
    "$bin" "${margs[@]}" --merge --fragments-dir "$dir" > /dev/null \
           2> "$scratch/$flaw.log" || rc=$?
    [ "$rc" -eq 2 ] || { echo "$flaw merge: exit $rc" >&2; exit 1; }
    grep -q "corrupt fragment: $dir/$h0.json" "$scratch/$flaw.log"
    rc=0
    "$regress" --baseline "$scratch/merged.json" \
               --current "$scratch/merged.json" \
               --baseline-fragments "$dir" --current-fragments "$frags" \
               --out "$scratch/regress-$flaw.json" 2> /dev/null || rc=$?
    [ "$rc" -eq 2 ] || { echo "$flaw regress: exit $rc" >&2; exit 1; }
done

echo "== regress self-compare is clean, with every unit's wall time =="
"$regress" --baseline "$scratch/merged.json" \
           --current "$scratch/merged.json" \
           --baseline-fragments "$frags" --current-fragments "$frags" \
           --out "$scratch/regress-clean.json"
python3 "$validate" --regression "$scratch/regress-clean.json"
python3 - "$scratch/regress-clean.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["regressed"] is False, doc
assert len(doc["units"]) == 4, doc["units"]
assert all("wall" in u for u in doc["units"]), doc["units"]
EOF
"$regress" --baseline "$scratch/replay-merged.json" \
           --current "$scratch/replay-merged.json" \
           --baseline-fragments "$scratch/replay-frags" \
           --current-fragments "$scratch/replay-frags" \
           --out "$scratch/regress-replay.json"
python3 - "$scratch/regress-replay.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["regressed"] is False, doc
assert len(doc["units"]) == 4, doc["units"]
assert all(u["id"].endswith("@replay") and "wall" in u
           for u in doc["units"]), doc["units"]
EOF

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

echo "== regress rejects a missing or corrupt fragments directory =="
mkdir "$scratch/corrupt-frags"
echo '{ not json' > "$scratch/corrupt-frags/garbage.json"
for dir in "$scratch/no-such-dir" "$scratch/corrupt-frags"; do
    rc=0
    "$regress" --baseline "$scratch/merged.json" \
               --current "$scratch/merged.json" \
               --baseline-fragments "$dir" --current-fragments "$frags" \
               --out "$scratch/regress-none.json" || rc=$?
    [ "$rc" -eq 2 ] || { echo "$dir: expected exit 2, got $rc" >&2; exit 1; }
done

echo "sweep smoke OK"
