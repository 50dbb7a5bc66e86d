#!/bin/bash
# Regenerates every exhibit, teeing combined output — or, with
# --sweep N, runs the (benchmark, config) matrix as N sharded worker
# processes through tools/tcsim_sweep with crash detection, bounded
# retry, and a byte-deterministic merge.
#
# Both modes run the same work units through the same executor
# (bench/sweep.h). Exhibit mode is one tcsim_exhibits call: every
# exhibit's units, deduplicated by hash, fan out across TCSIM_JOBS
# worker threads (default: all cores) and each exhibit prints its
# "### <name>" section; results are identical at any job count. The
# micro_components and trace_overhead host benchmarks run after it.
# stdout goes to bench_output.txt, progress lines to bench_stderr.log
# (both rewritten on every run); the exit status is tcsim_exhibits'
# (verify_claims' failed-claim count).
#
# Sweep mode (--sweep N): shards the work-unit matrix across N
# tcsim_sweep worker processes writing atomic per-unit fragments, then
# retries any units lost to crashes or timeouts (round-robin
# worklists, up to TCSIM_SWEEP_RETRIES passes, per-unit timeout
# TCSIM_UNIT_TIMEOUT seconds), merges the fragments into
# SWEEP_results.json (schema tcsim-bench-results-v1 — byte-identical
# to a single-process run of the same matrix), and records sweep
# timing + artifact-cache statistics in BENCH_results.json. The
# processes are the parallelism, so each runs with TCSIM_JOBS=1.
# The sampled and replay artifacts are reused across workers and runs
# via the content-addressed cache in TCSIM_CACHE_DIR (default
# .tcsim_cache); full units look nothing up.
#
# Usage: run_benches.sh [--long] [--sweep N]
#                       [--inject-kill] [--warm-compare]
#                       [--sampled-errors] [--regress-against FILE]
#   --long          raise the default instruction budget to 1M per run
#                   (statistically meaningful sweeps; an explicit
#                   TCSIM_INSTS still wins).
#   --sweep N       sweep mode with N worker processes.
#   --inject-kill   (sweep mode) worker 0 SIGKILLs itself after one
#                   unit, exercising the crash-retry path (CI).
#   --warm-compare  (sweep mode) after the merge, re-run the matrix
#                   single-process against the now-warm artifact cache
#                   (sampled and replay units; full units cache
#                   nothing), assert the document is byte-identical,
#                   and record the cold-vs-warm wall-clock in
#                   BENCH_results.json.
#   --sampled-errors (sampled sweep mode) after the merge, run the
#                   sampled-vs-full error report (each unit simulated
#                   BOTH ways — expensive), fail if any unit's IPC or
#                   fetch-rate error exceeds TCSIM_ERROR_TOLERANCE (or
#                   its mispredict-rate error exceeds
#                   TCSIM_MISPREDICT_TOLERANCE), and embed the report
#                   in BENCH_results.json.
#   --regress-against FILE
#                   (sweep mode) after the merge, gate
#                   SWEEP_results.json against the baseline results
#                   document FILE with tools/tcsim_regress; the
#                   verdict lands in REGRESSION_report.json and is
#                   embedded in BENCH_results.json. A regression
#                   (tcsim_regress exit 5) fails the run.
#
# TCSIM_WARMUP=n means the same in both modes (in sweep mode it is
# passed as `tcsim_sweep --warmup n`): each unit simulates [0, n) on
# the measuring processor, resets its statistics and measures
# [n, n + budget), as `tcsim_run --warmup n` does.
#
# Sweep-mode environment:
#   TCSIM_SWEEP_ARGS     extra tcsim_sweep matrix args, word-split
#                        (e.g. "--benchmarks compress,li --configs
#                        baseline,promotion-t64")
#   TCSIM_WARMUP         per-unit warm-up instructions (see above)
#   TCSIM_SAMPLED_INTERVAL / TCSIM_SAMPLED_K
#                        enable SimPoint-style sampled execution: BBV
#                        interval length and max cluster count (both
#                        required together; interval must divide the
#                        budget)
#   TCSIM_ERROR_TOLERANCE max IPC / fetch-rate relative error for
#                        --sampled-errors (default 0.05)
#   TCSIM_MISPREDICT_TOLERANCE max mispredict-rate ABSOLUTE error for
#                        --sampled-errors (default 0.08 = 8 points;
#                        per-region predictor warm-up bias shifts the
#                        sampled rate by a few points regardless of
#                        the base rate, so the bound is absolute)
#   TCSIM_CACHE_DIR      artifact cache directory (default
#                        .tcsim_cache; empty string disables)
#   TCSIM_UNIT_TIMEOUT   per-unit timeout seconds (default 600)
#   TCSIM_SWEEP_RETRIES  retry passes after the first (default 2)
cd "$(dirname "$0")" || exit 1

sweep_shards=0
inject_kill=0
warm_compare=0
sampled_errors=0
regress_baseline=""
while [ $# -gt 0 ]; do
    case "$1" in
        --long)
            export TCSIM_INSTS="${TCSIM_INSTS:-1000000}"
            ;;
        --sweep)
            shift
            sweep_shards="$1"
            ;;
        --inject-kill)
            inject_kill=1
            ;;
        --warm-compare)
            warm_compare=1
            ;;
        --sampled-errors)
            sampled_errors=1
            ;;
        --regress-against)
            shift
            regress_baseline="$1"
            ;;
        *)
            echo "unknown option: $1" >&2
            exit 1
            ;;
    esac
    shift
done

# ----------------------------------------------------------------------
# Sweep mode.
# ----------------------------------------------------------------------
if [ "$sweep_shards" -gt 0 ]; then
    sweep_bin=build/tools/tcsim_sweep
    [ -x "$sweep_bin" ] || { echo "$sweep_bin not built" >&2; exit 1; }

    unit_timeout="${TCSIM_UNIT_TIMEOUT:-600}"
    max_retries="${TCSIM_SWEEP_RETRIES:-2}"
    cache_dir="${TCSIM_CACHE_DIR-.tcsim_cache}"

    # Matrix arguments shared verbatim by workers, check and merge —
    # unit hashes only line up when every invocation sees the same
    # matrix. TCSIM_SWEEP_ARGS is word-split by design.
    # shellcheck disable=SC2206
    matrix_args=(${TCSIM_SWEEP_ARGS-})
    [ -n "${TCSIM_INSTS:-}" ] && matrix_args+=(--insts "$TCSIM_INSTS")
    [ -n "${TCSIM_WARMUP:-}" ] && matrix_args+=(--warmup "$TCSIM_WARMUP")
    if [ -n "${TCSIM_SAMPLED_INTERVAL:-}" ] || \
       [ -n "${TCSIM_SAMPLED_K:-}" ]; then
        if [ -z "${TCSIM_SAMPLED_INTERVAL:-}" ] || \
           [ -z "${TCSIM_SAMPLED_K:-}" ]; then
            echo "TCSIM_SAMPLED_INTERVAL and TCSIM_SAMPLED_K must be" \
                 "set together" >&2
            exit 1
        fi
        matrix_args+=(--sampled-interval "$TCSIM_SAMPLED_INTERVAL"
                      --sampled-max-k "$TCSIM_SAMPLED_K")
    fi
    [ -n "$cache_dir" ] && matrix_args+=(--cache-dir "$cache_dir")

    sweep_dir=.sweep.tmp
    frags="$sweep_dir/fragments"
    rm -rf "$sweep_dir"
    mkdir -p "$frags"

    n_units=$("$sweep_bin" --list "${matrix_args[@]}" \
                  | sed -n 's/^matrix [0-9a-f]* (\([0-9]*\) units)$/\1/p')
    [ -n "$n_units" ] || { echo "cannot enumerate matrix" >&2; exit 1; }
    units_per_shard=$(( (n_units + sweep_shards - 1) / sweep_shards ))
    echo "sweep: $n_units units across $sweep_shards workers" \
         "(per-unit timeout ${unit_timeout}s)"

    total_start=$(date +%s)

    # Pass 0: one shard per worker; the process timeout is the
    # per-unit budget times the shard's unit count.
    pids=()
    for i in $(seq 0 $((sweep_shards - 1))); do
        worker_args=(--shard "$i/$sweep_shards" --fragments-dir "$frags"
                     --timing-out "$sweep_dir/timing.$i.json")
        if [ "$inject_kill" -eq 1 ] && [ "$i" -eq 0 ]; then
            worker_args+=(--die-after 1)
        fi
        TCSIM_JOBS=1 timeout $((unit_timeout * units_per_shard)) \
            "$sweep_bin" "${matrix_args[@]}" "${worker_args[@]}" \
            > "$sweep_dir/worker.$i.log" 2>&1 &
        pids+=($!)
    done
    crashed=0
    timeout_killed_workers=0
    for i in $(seq 0 $((sweep_shards - 1))); do
        code=0
        wait "${pids[$i]}" || code=$?
        if [ "$code" -ne 0 ]; then
            echo "sweep: worker $i exited with code $code" \
                 "(crash or timeout; its missing units will be retried)"
            crashed=$((crashed + 1))
            # timeout(1) reports an expired timer with 124; other
            # codes (e.g. 137 from --inject-kill's SIGKILL) are
            # crashes, not timeouts.
            if [ "$code" -eq 124 ]; then
                timeout_killed_workers=$((timeout_killed_workers + 1))
            fi
        fi
    done

    # Bounded retry: split the missing units round-robin into fresh
    # worklists and re-run each unit under its own timeout. Per-unit
    # retry counts accumulate in the main shell; per-unit timeout
    # kills are appended to a file because the workers are subshells.
    retries_used=0
    declare -A unit_retries=()
    : > "$sweep_dir/timeout_kills.txt"
    for pass in $(seq 1 "$max_retries"); do
        # --missing-out writes the retry worklist atomically (the
        # stdout listing is kept for the log only).
        "$sweep_bin" --check --fragments-dir "$frags" \
            "${matrix_args[@]}" \
            --missing-out "$sweep_dir/missing.txt" \
            > "$sweep_dir/check.log" 2>&1 && break
        n_missing=$(wc -l < "$sweep_dir/missing.txt")
        echo "sweep: retry pass $pass for $n_missing missing units"
        retries_used=$pass
        for i in $(seq 0 $((sweep_shards - 1))); do
            : > "$sweep_dir/retry.$i.txt"
        done
        j=0
        while read -r h; do
            [ -n "$h" ] || continue
            unit_retries[$h]=$(( ${unit_retries[$h]:-0} + 1 ))
            echo "$h" >> "$sweep_dir/retry.$((j % sweep_shards)).txt"
            j=$((j + 1))
        done < "$sweep_dir/missing.txt"
        pids=()
        for i in $(seq 0 $((sweep_shards - 1))); do
            [ -s "$sweep_dir/retry.$i.txt" ] || continue
            (
                while read -r h; do
                    [ -n "$h" ] || continue
                    echo "$h" > "$sweep_dir/retry.$i.one"
                    rc=0
                    TCSIM_JOBS=1 timeout "$unit_timeout" "$sweep_bin" \
                        "${matrix_args[@]}" \
                        --worklist "$sweep_dir/retry.$i.one" \
                        --fragments-dir "$frags" \
                        >> "$sweep_dir/worker.$i.log" 2>&1 || rc=$?
                    if [ "$rc" -eq 124 ]; then
                        echo "$h" >> "$sweep_dir/timeout_kills.txt"
                    fi
                done < "$sweep_dir/retry.$i.txt"
            ) &
            pids+=($!)
        done
        for pid in "${pids[@]}"; do wait "$pid" || true; done
    done

    if ! "$sweep_bin" --check --fragments-dir "$frags" \
             "${matrix_args[@]}" > /dev/null 2>&1; then
        echo "sweep: units still missing after $max_retries retries:" >&2
        "$sweep_bin" --check --fragments-dir "$frags" \
            "${matrix_args[@]}" 2>&1 >&2 | sed 's/^/  /' >&2
        exit 1
    fi

    "$sweep_bin" --merge --fragments-dir "$frags" "${matrix_args[@]}" \
        --out SWEEP_results.json || exit 1
    total=$(( $(date +%s) - total_start ))

    # Optional perf-regression gate against a prior merged document.
    regress_json=""
    if [ -n "$regress_baseline" ]; then
        regress_bin=build/tools/tcsim_regress
        [ -x "$regress_bin" ] || {
            echo "$regress_bin not built" >&2; exit 1; }
        [ -f "$regress_baseline" ] || {
            echo "baseline $regress_baseline not found" >&2; exit 1; }
        regress_code=0
        "$regress_bin" --baseline "$regress_baseline" \
            --current SWEEP_results.json \
            --out REGRESSION_report.json || regress_code=$?
        if [ "$regress_code" -ne 0 ] && [ "$regress_code" -ne 5 ]; then
            echo "tcsim_regress failed (exit $regress_code)" >&2
            exit 1
        fi
        regress_json=$(printf '"regression":%s,' \
            "$(tr -d '\n' < REGRESSION_report.json)")
        if [ "$regress_code" -eq 5 ]; then
            echo "sweep: PERF REGRESSION against $regress_baseline" \
                 "(details: REGRESSION_report.json)" >&2
            # Still emit BENCH_results.json below so the report is
            # preserved, then fail.
        else
            echo "sweep: no regression against $regress_baseline"
        fi
    fi

    # Optional warm rerun: with the sampled and replay artifacts now
    # cached, a single-process pass must be byte-identical — cache
    # hits may only ever change wall-clock.
    warm_json=""
    if [ "$warm_compare" -eq 1 ] && [ -n "$cache_dir" ]; then
        warm_start=$(date +%s.%N)
        "$sweep_bin" "${matrix_args[@]}" \
            --out "$sweep_dir/warm.json" \
            --timing-out "$sweep_dir/warm.timing.json" \
            > "$sweep_dir/warm.log" 2>&1 || exit 1
        warm_end=$(date +%s.%N)
        if ! cmp -s SWEEP_results.json "$sweep_dir/warm.json"; then
            echo "warm rerun changed simulation results" >&2
            exit 1
        fi
        warm_json=$(printf \
            '"warm_rerun":{"wall_seconds":%s,"byte_identical":true,"timing":%s},' \
            "$(echo "$warm_end $warm_start" | awk '{printf "%.3f", $1-$2}')" \
            "$(tr -d '\n' < "$sweep_dir/warm.timing.json")")
        echo "sweep: warm rerun byte-identical"
    fi

    # Optional sampled-vs-full error report: re-simulates every unit
    # both ways, so only ask for it on matrices sized for calibration.
    error_json=""
    if [ "$sampled_errors" -eq 1 ]; then
        tolerance="${TCSIM_ERROR_TOLERANCE:-0.05}"
        mispredict_tolerance="${TCSIM_MISPREDICT_TOLERANCE:-0.08}"
        "$sweep_bin" "${matrix_args[@]}" \
            --error-out "$sweep_dir/errors.json" \
            --error-tolerance "$tolerance" \
            --mispredict-tolerance "$mispredict_tolerance" \
            > "$sweep_dir/errors.log" 2>&1
        error_code=$?
        if [ "$error_code" -ne 0 ] && [ "$error_code" -ne 4 ]; then
            echo "sampling-error report failed (exit $error_code)" >&2
            cat "$sweep_dir/errors.log" >&2
            exit 1
        fi
        cp "$sweep_dir/errors.json" SAMPLING_errors.json
        error_json=$(printf '"sampling_error":%s,' \
            "$(tr -d '\n' < "$sweep_dir/errors.json")")
        if [ "$error_code" -eq 4 ]; then
            echo "sweep: sampling error exceeds tolerance $tolerance" \
                 "(mispredict $mispredict_tolerance)" >&2
            exit 1
        fi
        echo "sweep: sampling errors within tolerance $tolerance" \
             "(mispredict $mispredict_tolerance, SAMPLING_errors.json)"
    fi

    # BENCH_results.json: sweep timing + per-worker cache statistics
    # (the canonical simulation numbers live in SWEEP_results.json;
    # everything here is wall-clock, which is why it is kept apart).
    {
        printf '{"schema":"tcsim-bench-exhibits-v1",'
        printf '"sweep":{"shards":%d,"units":%d,' \
            "$sweep_shards" "$n_units"
        printf '"total_wall_seconds":%d,"retry_passes":%d,' \
            "$total" "$retries_used"
        printf '"crashed_workers":%d,' "$crashed"
        printf '"timeout_killed_workers":%d,' "$timeout_killed_workers"
        # Per-unit retry counts (hash -> times it landed on a retry
        # worklist) and units whose retry was cut down by the per-unit
        # timeout. Empty when pass 0 covered everything.
        printf '"unit_retries":['
        first=1
        for h in "${!unit_retries[@]}"; do
            [ $first -eq 1 ] || printf ','
            first=0
            printf '{"hash":"%s","retries":%d}' "$h" \
                "${unit_retries[$h]}"
        done
        printf '],"timeout_killed_units":['
        first=1
        if [ -f "$sweep_dir/timeout_kills.txt" ]; then
            while read -r h; do
                [ -n "$h" ] || continue
                [ $first -eq 1 ] || printf ','
                first=0
                printf '"%s"' "$h"
            done < "$sweep_dir/timeout_kills.txt"
        fi
        printf '],%s%s%s"workers":[' \
            "$warm_json" "$error_json" "$regress_json"
        first=1
        for f in "$sweep_dir"/timing.*.json; do
            [ -f "$f" ] || continue
            [ $first -eq 1 ] || printf ','
            first=0
            tr -d '\n' < "$f"
        done
        printf ']},"exhibits":[]}\n'
    } > BENCH_results.json
    rm -rf "$sweep_dir"
    if [ -n "$regress_baseline" ] && [ "${regress_code:-0}" -eq 5 ]; then
        echo "SWEEP FAILED perf-regression gate in ${total}s" \
             "(report: REGRESSION_report.json)" >&2
        exit 5
    fi
    echo "SWEEP COMPLETE in ${total}s" \
         "(results: SWEEP_results.json, timing: BENCH_results.json)"
    exit 0
fi

# ----------------------------------------------------------------------
# Exhibit mode.
# ----------------------------------------------------------------------
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
