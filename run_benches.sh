#!/bin/bash
# Regenerates every exhibit, teeing combined output.
#
# One tcsim_exhibits call: every exhibit's work units, deduplicated by
# hash, fan out across TCSIM_JOBS worker threads (default: all cores)
# through the executor tcsim_sweep uses too (bench/sweep.h), and each
# exhibit prints its "### <name>" section; results are identical at any
# job count. The micro_components and trace_overhead host benchmarks
# run after it. stdout goes to bench_output.txt, progress lines to
# bench_stderr.log (both rewritten on every run); the exit status is
# tcsim_exhibits' (verify_claims' failed-claim count).
#
# TCSIM_WARMUP=n warms each unit up: it simulates [0, n) on the
# measuring processor, resets its statistics and measures
# [n, n + budget), as `tcsim_run --warmup n` and
# `tcsim_sweep --warmup n` do. The sweep matrix itself is one
# `build/tools/tcsim_sweep --fragments-dir d --out f` call, which a
# killed run resumes when run again.
#
# Usage: run_benches.sh [--long]
#   --long          raise the default instruction budget to 1M per run
#                   (statistically meaningful sweeps; an explicit
#                   TCSIM_INSTS still wins).
cd "$(dirname "$0")" || exit 1

while [ $# -gt 0 ]; do
    case "$1" in
        --long)
            export TCSIM_INSTS="${TCSIM_INSTS:-1000000}"
            ;;
        *)
            echo "unknown option: $1" >&2
            exit 1
            ;;
    esac
    shift
done

exhibits_bin=build/bench/tcsim_exhibits
[ -x "$exhibits_bin" ] || { echo "$exhibits_bin not built" >&2; exit 1; }
: > bench_output.txt
: > bench_stderr.log

total_start=$(date +%s)
"$exhibits_bin" 2>>bench_stderr.log | tee -a bench_output.txt
status=${PIPESTATUS[0]}
for b in build/bench/micro_components build/bench/trace_overhead; do
    echo "### $(basename "$b")" | tee -a bench_output.txt
    "$b" 2>>bench_stderr.log | tee -a bench_output.txt
done
total=$(( $(date +%s) - total_start ))

echo "ALL BENCHES COMPLETE in ${total}s (tcsim_exhibits exit $status)"
exit "$status"
