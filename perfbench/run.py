#!/usr/bin/env python3
"""tcsim benchmark: end-to-end and per-layer metrics on three workloads.

    python3 perfbench/run.py --workload core|frontend|sweep --seed N \\
        --seconds S --trace 0|1

Builds perfbench/ (CMake + Ninja, RelWithDebInfo) into .bench_build/ at
the repository root, runs the tcsim_perfbench driver on the workload for
S seconds of rounds, checks its results, and prints every metric with
its unit. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics under
--trace 0, the per-layer metrics under --trace 1. The driver's raw
output, JSON lines, is kept in .bench_build/out/ as
<workload>-seed<N>-trace<T>.jsonl; a traced run also writes its spans
there as Chrome trace_event JSON (opens in Perfetto), in
<workload>-seed<N>.trace.json.

--seed 0 keeps the suite's own profile seeds; any other seed generates
held-out programs of the same shape for frontend and sweep (core always
runs the suite's own programs). README.md in this directory describes
the workloads, the metrics and the recorded baseline.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "cmake" / "tcsim_perfbench"
OUT = BUILD / "out"
TMP = BUILD / "tmp"

WORKLOADS = ("core", "frontend", "sweep")

# (name, unit, better); BENCHMARK.json lists the same, with the bounds.
END_TO_END = (
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("sim_mips", "Minst/s", "higher"),
    ("peak_rss_mib", "MiB", "lower"),
)

PHASES = ("fetch", "dispatch", "schedule", "complete", "retire", "fill",
          "recovery")
CYCLE_CATEGORIES = ("UsefulFetch", "BranchMisses", "CacheMisses",
                    "FullWindow", "Traps", "Misfetches")
# Span names as the driver records them -> the layer their self time
# counts toward ("driver" is the benchmark's own work between calls).
SPAN_LAYERS = {
    "workload": "driver",
    "unit": "driver",
    "generateProgram": "generate",
    "Processor": "construct",
    "run.warmup": "simulate",
    "run": "simulate",
    "functionalWarmup": "simulate",
    "recordTrace": "simulate",
    "replayTrace": "simulate",
}
LAYERS = ("generate", "construct", "simulate", "driver")
NS_PER_INST_BENCHES = ("gcc", "go")

PER_LAYER = (
    # workload layer
    ("workload.generate_s", "s", "lower"),
    ("workload.btrace_mib", "MiB", "lower"),
    # simulator host time, with the instruction and cycle bases
    ("sim.construct_s", "s", "lower"),
    ("sim.run_s", "s", "lower"),
    ("sim.run_insts", "count", "higher"),
    ("sim.run_cycles", "count", "lower"),
    ("sim.ns_per_inst.gcc", "ns/inst", "lower"),
    ("sim.insts.gcc", "count", "higher"),
    ("sim.ns_per_inst.go", "ns/inst", "lower"),
    ("sim.insts.go", "count", "higher"),
    ("sim.ns_per_cycle", "ns/cycle", "lower"),
    *((f"sim.{p}_ns_per_inst", "ns/inst", "lower") for p in PHASES),
    ("sim.warmup_ns_per_inst", "ns/inst", "lower"),
    ("sim.record_ns_per_inst", "ns/inst", "lower"),
    ("sim.replay_ns_per_inst", "ns/inst", "lower"),
    ("sim.walk_insts", "count", "higher"),
    # modelled design: deterministic counts
    ("sim.window_insts", "count", "higher"),
    ("sim.window_cycles", "count", "lower"),
    ("sim.ipc", "inst/cycle", "higher"),
    *((f"sim.cycle_share.{c}", "ratio",
       "higher" if c == "UsefulFetch" else "lower")
      for c in CYCLE_CATEGORIES),
    ("fetch.useful_fetches", "count", "lower"),
    ("fetch.effective_rate", "inst/fetch", "higher"),
    ("fetch.preds_per_fetch", "pred/fetch", "lower"),
    ("trace.tc_lookups", "count", "lower"),
    ("trace.tc_hit_rate", "ratio", "higher"),
    ("trace.tc_inserts", "count", "lower"),
    ("trace.segments_built", "count", "lower"),
    ("trace.mean_segment_size", "inst/segment", "higher"),
    ("trace.promotions", "count", "higher"),
    ("trace.demotions", "count", "lower"),
    ("bpred.cond_branches", "count", "higher"),
    ("bpred.mispredict_rate", "ratio", "lower"),
    ("bpred.promoted_faults", "count", "lower"),
    ("bpred.indirect_mispredicts", "count", "lower"),
    ("memory.icache_accesses", "count", "lower"),
    ("memory.icache_miss_rate", "ratio", "lower"),
    ("memory.dcache_accesses", "count", "lower"),
    ("memory.dcache_miss_rate", "ratio", "lower"),
    ("memory.l2_accesses", "count", "lower"),
    ("memory.l2_miss_rate", "ratio", "lower"),
    ("core.mem_order_violations", "count", "lower"),
    # benchmark driver fan-out and tracing
    ("driver.threads", "count", "higher"),
    ("driver.units", "count", "higher"),
    ("driver.idle_frac", "ratio", "lower"),
    ("driver.slowest_unit_s", "s", "lower"),
    *((f"self_s.{layer}", "s", "lower") for layer in LAYERS),
    ("trace_overhead_pct", "%", "lower"),
    # host speed against the reference, and the unscaled elapsed time
    ("host.slowdown", "ratio", "lower"),
    ("host.wall_s", "s", "lower"),
)

# Host ns one pass of the driver's speed probe takes at the reference
# speed (its typical time on the host README.md names). Each round's
# host times are multiplied by this over the round's mean probe time,
# so a stretch of slow host does not read as a slower simulator.
PROBE_REFERENCE_NS = 4.5e6


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def raw_path(workload, seed, trace):
    """Where run.py keeps the driver's raw output of a run."""
    return OUT / f"{workload}-seed{seed}-trace{trace}.jsonl"


def run_child(cmd, deadline, stdout):
    """Run @p cmd in its own process group, with temporary files kept
    under .bench_build/tmp; on timeout kill the whole group (the build
    spawns compilers) and wait for it.
    @return (exit code or None on timeout, captured stdout bytes)"""
    TMP.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(TMP))
    with subprocess.Popen(cmd, stdout=stdout, env=env,
                          start_new_session=True) as child:
        try:
            out, _ = child.communicate(
                timeout=max(1.0, deadline - time.time()))
            return child.returncode, out
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()
            return None, None


def build(deadline):
    """Configure (once) and build the driver; output goes to stderr."""
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not (BINARY.parent / "build.ninja").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BINARY.parent),
                      "-G", "Ninja", "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BINARY.parent), "--target",
                  BINARY.name, "-j", jobs])
    for cmd in steps:
        code, _ = run_child(cmd, deadline, sys.stderr.fileno())
        if code is None:
            fail("build timed out")
        if code != 0:
            fail(f"build failed: {' '.join(cmd)}")


def run_driver(args, deadline):
    """Run the driver and keep its raw output.
    @return the document load_raw() makes of it"""
    cmd = [str(BINARY), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           str(args.trace)]
    if args.threads:
        cmd += ["--threads", str(args.threads)]
    code, out = run_child(cmd, deadline, subprocess.PIPE)
    if code is None:
        fail("driver timed out", 3)
    if code != 0:
        fail(f"driver exited with code {code}", 3)
    path = raw_path(args.workload, args.seed, args.trace)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(out)
    return load_raw(out)


def load_raw(text):
    """The driver's JSON lines as one document: its summary line, with
    the round lines under "rounds" and round 0's simulated counts per
    unit under "units"."""
    lines = [json.loads(line) for line in text.splitlines()]
    doc = lines[-1]
    doc["rounds"] = lines[:-1]
    doc["units"] = doc["rounds"][0]["unit_counts"]
    return doc


def flatten_spans(doc):
    """Spans of every traced round with global ids, one workload root
    span per round (the round's own start/end)."""
    spans = []
    for index, rnd in enumerate(doc["rounds"]):
        if not rnd["traced"]:
            continue
        root = len(spans)
        spans.append({"id": root, "parent": None, "name": "workload",
                      "start_ns": rnd["start_ns"], "end_ns": rnd["end_ns"],
                      "unit": None, "tid": 0, "round": index})
        for unit in rnd["units"]:
            base = len(spans)
            for local in unit["spans"]:
                parent = root if local["parent"] < 0 else base + local[
                    "parent"]
                spans.append({"id": len(spans), "parent": parent,
                              "name": local["name"],
                              "start_ns": local["start_ns"],
                              "end_ns": local["end_ns"], "unit": unit["id"],
                              "tid": unit["tid"], "round": index})
    return spans


def union_ns(intervals):
    total, end = 0, None
    for start, stop in sorted(intervals):
        if end is None or start > end:
            total += stop - start
            end = stop
        elif stop > end:
            total += stop - end
            end = stop
    return total


def self_times(spans):
    """Per round, summed self time (duration minus the union of its
    children's intervals) of each span name."""
    children = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(
                (span["start_ns"], span["end_ns"]))
    per_round = {}
    for span in spans:
        own = span["end_ns"] - span["start_ns"]
        self_ns = own - union_ns(children.get(span["id"], []))
        totals = per_round.setdefault(span["round"], {})
        totals[span["name"]] = totals.get(span["name"], 0) + self_ns
    return per_round


def write_chrome_trace(path, spans):
    events = [{"name": s["name"], "cat": "perfbench", "ph": "X",
               "ts": s["start_ns"] / 1e3,
               "dur": (s["end_ns"] - s["start_ns"]) / 1e3, "pid": 1,
               "tid": s["tid"],
               "args": {"id": s["id"], "parent": s["parent"],
                        "unit": s["unit"], "round": s["round"]}}
              for s in spans]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"traceEvents": events,
                                "displayTimeUnit": "ms"}) + "\n")


def ratio(num, den):
    return num / den if den else 0.0


def slowdown(rnd):
    """How many times slower than the reference speed the host ran
    during @p rnd, by the driver's speed probe."""
    return rnd["probe_ns"] / PROBE_REFERENCE_NS


def round_sums(rnd, units, bench=None):
    """Sums over the units of @p rnd (only those of @p bench if given),
    with host times scaled to the reference speed."""
    scale = 1.0 / slowdown(rnd)
    chosen = [u for info, u in zip(units, rnd["units"])
              if bench is None or info["bench"] == bench]
    s = {k: sum(u[k] for u in chosen) * scale for k in (
        "generate_ns", "construct_ns", "run_ns", "warmup_ns", "record_ns",
        "replay_ns")}
    s.update({k: sum(u[k] for u in chosen) for k in (
        "run_insts", "run_cycles", "warmup_insts", "record_insts",
        "replay_insts")})
    s["sim_ns"] = s["run_ns"] + s["warmup_ns"] + s["record_ns"] + s[
        "replay_ns"]
    s["sim_insts"] = (s["run_insts"] + s["warmup_insts"] +
                      s["record_insts"] + s["replay_insts"])
    s["phase_ns"] = {p: sum(u["phase_ns"][p] for u in chosen) * scale
                     for p in PHASES}
    # The round's elapsed time less the probes: its busiest thread.
    busy = {}
    for u in rnd["units"]:
        busy[u["tid"]] = busy.get(u["tid"], 0) + u["end_ns"] - u["start_ns"]
    s["wall_ns"] = max(busy.values()) * scale
    return s


def end_to_end(doc):
    rounds = [r for r in doc["rounds"] if not r["traced"]]
    per = []
    for rnd in rounds:
        s = round_sums(rnd, doc["units"])
        per.append({"wall_s": s["wall_ns"] / 1e9,
                    "setup_s": (s["generate_ns"] + s["construct_ns"]) / 1e9,
                    "sim_mips": ratio(s["sim_insts"], s["sim_ns"]) * 1e3})
    metrics = {k: statistics.median(p[k] for p in per) for k in per[0]}
    metrics["peak_rss_mib"] = doc["peak_rss_kib"] / 1024
    return metrics


def host_speed(doc):
    """Median slowdown and raw elapsed seconds of the untraced rounds."""
    rounds = [r for r in doc["rounds"] if not r["traced"]]
    return (statistics.median(slowdown(r) for r in rounds),
            statistics.median(r["end_ns"] - r["start_ns"]
                              for r in rounds) / 1e9)


def counts_total(doc):
    total = {}
    for info in doc["units"]:
        for key, value in info["counts"].items():
            total[key] = total.get(key, 0) + value
    return total


def per_layer(doc, spans):
    units = doc["units"]
    traced = [(i, r) for i, r in enumerate(doc["rounds"]) if r["traced"]]
    untraced = [r for r in doc["rounds"] if not r["traced"]]
    selfs = self_times(spans)
    per = []
    for index, rnd in traced:
        s = round_sums(rnd, units)
        m = {
            "workload.generate_s": s["generate_ns"] / 1e9,
            "sim.construct_s": s["construct_ns"] / 1e9,
            "sim.run_s": s["sim_ns"] / 1e9,
            "sim.ns_per_cycle": ratio(s["run_ns"], s["run_cycles"]),
            "sim.warmup_ns_per_inst": ratio(s["warmup_ns"],
                                            s["warmup_insts"]),
            "sim.record_ns_per_inst": ratio(s["record_ns"],
                                            s["record_insts"]),
            "sim.replay_ns_per_inst": ratio(s["replay_ns"],
                                            s["replay_insts"]),
        }
        for bench in NS_PER_INST_BENCHES:
            b = round_sums(rnd, units, bench)
            m[f"sim.ns_per_inst.{bench}"] = ratio(b["sim_ns"],
                                                  b["sim_insts"])
        for phase in PHASES:
            m[f"sim.{phase}_ns_per_inst"] = ratio(s["phase_ns"][phase],
                                                  s["run_insts"])
        durations = [u["end_ns"] - u["start_ns"] for u in rnd["units"]]
        m["driver.idle_frac"] = 1.0 - ratio(
            sum(durations), doc["threads"] * (rnd["end_ns"] - rnd["start_ns"]))
        scale = 1e9 * slowdown(rnd)
        m["driver.slowest_unit_s"] = max(durations) / scale
        for layer in LAYERS:
            m[f"self_s.{layer}"] = sum(
                ns for name, ns in selfs[index].items()
                if SPAN_LAYERS[name] == layer) / scale
        per.append(m)
    metrics = {k: statistics.median(p[k] for p in per) for k in per[0]}

    first = round_sums(traced[0][1], units)
    c = counts_total(doc)
    cycles = c["window_cycles"]
    metrics.update({
        "workload.btrace_mib": c["btrace_bytes"] / 2**20,
        "sim.run_insts": first["run_insts"],
        "sim.run_cycles": first["run_cycles"],
        "sim.walk_insts": (first["warmup_insts"] + first["record_insts"] +
                           first["replay_insts"]),
        "sim.window_insts": c["window_insts"],
        "sim.window_cycles": cycles,
        "sim.ipc": ratio(c["window_insts"], cycles),
        "fetch.useful_fetches": c["useful_fetches"],
        "fetch.effective_rate": ratio(c["fetched_insts"],
                                      c["useful_fetches"]),
        "fetch.preds_per_fetch": ratio(c["predictions_used"],
                                       c["useful_fetches"]),
        "trace.tc_lookups": c["tc_lookups"],
        "trace.tc_hit_rate": ratio(c["tc_hits"], c["tc_lookups"]),
        "trace.tc_inserts": c["tc_inserts"],
        "trace.segments_built": c["segments_built"],
        "trace.mean_segment_size": ratio(c["segment_insts"],
                                         c["segments_built"]),
        "trace.promotions": c["promotions"],
        "trace.demotions": c["demotions"],
        "bpred.cond_branches": c["cond_branches"],
        "bpred.mispredict_rate": ratio(c["cond_mispredicts"],
                                       c["cond_branches"]),
        "bpred.promoted_faults": c["promoted_faults"],
        "bpred.indirect_mispredicts": c["indirect_mispredicts"],
        "core.mem_order_violations": c["mem_order_violations"],
        "driver.threads": doc["threads"],
        "driver.units": len(units),
    })
    for bench in NS_PER_INST_BENCHES:
        metrics[f"sim.insts.{bench}"] = round_sums(
            traced[0][1], units, bench)["sim_insts"]
    for cat in CYCLE_CATEGORIES:
        metrics[f"sim.cycle_share.{cat}"] = ratio(c[f"cycles.{cat}"], cycles)
    for level in ("icache", "dcache", "l2"):
        metrics[f"memory.{level}_accesses"] = c[f"{level}_accesses"]
        metrics[f"memory.{level}_miss_rate"] = ratio(
            c[f"{level}_misses"], c[f"{level}_accesses"])

    walls = lambda rounds: statistics.median(
        round_sums(r, units)["wall_ns"] for r in rounds)
    untraced_wall = walls(untraced)
    metrics["trace_overhead_pct"] = 100.0 * ratio(
        walls(r for _, r in traced) - untraced_wall, untraced_wall)
    metrics["host.slowdown"], metrics["host.wall_s"] = host_speed(doc)
    return metrics


def stage_split(doc, bench):
    """Median over traced rounds of @p bench's host ns per instruction
    retired in run, per SelfProfiler stage; None if it ran no run."""
    per = []
    for rnd in doc["rounds"]:
        b = round_sums(rnd, doc["units"], bench)
        if rnd["traced"] and b["run_insts"]:
            per.append({p: b["phase_ns"][p] / b["run_insts"]
                        for p in PHASES})
    return {p: statistics.median(s[p] for s in per)
            for p in PHASES} if per else None


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--threads", type=int, default=0,
                        help="sweep threads (default min(nproc, 4))")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    start = time.time()
    build(start + 880)
    # The run must end within 180 s of the first timed round.
    doc = run_driver(args, time.time() + max(args.seconds + 120, 170))

    spans = flatten_spans(doc)
    if args.trace:
        metrics = per_layer(doc, spans)
        names = PER_LAYER
        trace_path = OUT / f"{args.workload}-seed{args.seed}.trace.json"
        write_chrome_trace(trace_path, spans)
    else:
        metrics = end_to_end(doc)
        names = END_TO_END
    correct = doc["failed"] == 0 and not doc["failures"]

    rounds = doc["rounds"]
    print(f"workload {args.workload}  seed {args.seed}  "
          f"threads {doc['threads']} (nproc {doc['nproc']})  "
          f"rounds {len(rounds)} ({sum(r['traced'] for r in rounds)} traced)")
    print(f"digest {args.workload} {doc['digest']}  "
          f"(round 0, {len(doc['units'])} units)")
    for failure in doc["failures"]:
        print(f"FAILED {failure}")
    host_slowdown, host_wall = host_speed(doc)
    print(f"host ran {host_slowdown:.3f}x the reference probe time; "
          f"untraced rounds took {host_wall:.3f} s unscaled")
    for name, unit, _ in names:
        print(f"{name:32s} {metrics[name]:16.6f} {unit}")
    if args.trace:
        selfs = self_times(spans).values()
        print("self time per span, unscaled (median over traced rounds):")
        for name in SPAN_LAYERS:
            value = statistics.median(t.get(name, 0) for t in selfs) / 1e9
            print(f"  {name:30s} {value:16.6f} s")
        for bench in NS_PER_INST_BENCHES:
            split = stage_split(doc, bench)
            if split:
                total = sum(split.values())
                print(f"stage split of {bench}, ns/inst (share): " +
                      "  ".join(f"{p} {ns:.0f} ({ns / total:.0%})"
                                for p, ns in split.items()))
        print(f"spans written to {trace_path.relative_to(ROOT)}")

    result = {"correct": correct, "attempted": doc["attempted"],
              "failed": doc["failed"],
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit, _ in names}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
