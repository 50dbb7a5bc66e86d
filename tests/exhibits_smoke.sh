#!/bin/bash
# End-to-end smoke test for tcsim_exhibits, driven by ctest:
#
#  1. every exhibit at TCSIM_INSTS=20000 under TCSIM_JOBS=1 and 4,
#     each run exiting 0 (every verify_claims claim passes there),
#  2. the two runs' stdout byte-identical,
#  3. `tcsim_exhibits table4_packing_regulation fig4_fetch_histogram`
#     printing exactly those two sections of the full run.
#
# Usage: exhibits_smoke.sh <cmake-build-dir>
set -eu

bin="$1/bench/tcsim_exhibits"
[ -x "$bin" ] || { echo "missing binary: $bin" >&2; exit 1; }
scratch=$(mktemp -d)
trap 'rm -rf "$scratch"' EXIT
export TCSIM_INSTS=20000
unset TCSIM_WARMUP

echo "== every exhibit, one job against four =="
TCSIM_JOBS=1 "$bin" > "$scratch/jobs1.txt" 2> "$scratch/jobs1.log"
TCSIM_JOBS=4 "$bin" > "$scratch/jobs4.txt" 2> "$scratch/jobs4.log"
cmp "$scratch/jobs1.txt" "$scratch/jobs4.txt"

echo "== two named exhibits print their sections of the full run =="
"$bin" table4_packing_regulation fig4_fetch_histogram \
    > "$scratch/two.txt" 2> "$scratch/two.log"
awk '/^### / { keep = ($2 == "table4_packing_regulation" ||
                        $2 == "fig4_fetch_histogram") } keep' \
    "$scratch/jobs1.txt" > "$scratch/two.expected"
[ "$(grep -c '^### ' "$scratch/two.expected")" -eq 2 ]
cmp "$scratch/two.expected" "$scratch/two.txt"
echo "exhibits smoke: OK"
