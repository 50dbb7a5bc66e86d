#!/usr/bin/env python3
"""Validate tcsim observability outputs (stdlib only; used by CI).

Checks any combination of (each flag takes one or more paths and may
repeat, so a shell glob can follow it):
  --trace-jsonl PATH   one JSON object per line with keys
                       t (int), cat (known category), ev, detail
  --chrome PATH        Chrome trace_event JSON: {"traceEvents": [...]}
  --intervals PATH     tcsim-intervals-v1 document
  --fragment PATH      tcsim-bench-fragment-v1 sweep work-unit fragment
  --results PATH       tcsim-bench-results-v1 merged sweep document
  --regression PATH    tcsim-regression-v1 perf-gate verdict
  --btrace PATH        tcsim-btrace-v1 binary branch/fetch trace

Exits 0 when every named file validates, 1 otherwise.
"""

import argparse
import json
import math
import os
import sys

CATEGORIES = {"fetch", "tc", "fill", "promote", "bpred", "mem", "core"}

DELTA_KEYS = {
    "cycles", "insts", "useful_fetches", "fetched_insts", "cond_branches",
    "cond_mispredicts", "promoted_faults", "promotions", "demotions",
    "promoted_retired", "tc_lookups", "tc_hits", "segments_built",
    "icache_misses", "predictions_used", "mem_order_violations",
    "l2_misses", "writebacks",
}

RATE_KEYS = {
    "ipc", "fetch_rate", "tc_hit_rate", "mispredict_rate",
    "preds_per_fetch", "faults_per_kinst", "promotions_per_kinst",
    "demotions_per_kinst", "l2_mpki", "writebacks_per_kinst",
}


def fail(path, message):
    print(f"validate_obs: {path}: {message}", file=sys.stderr)
    return False


def validate_trace_jsonl(path):
    count = 0
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as err:
                return fail(path, f"line {lineno}: invalid JSON: {err}")
            if set(record) != {"t", "cat", "ev", "detail"}:
                return fail(path, f"line {lineno}: keys {sorted(record)}")
            if not isinstance(record["t"], int) or record["t"] < 0:
                return fail(path, f"line {lineno}: bad cycle {record['t']}")
            if record["cat"] not in CATEGORIES:
                return fail(
                    path, f"line {lineno}: unknown category {record['cat']}")
            if not isinstance(record["ev"], str) or not record["ev"]:
                return fail(path, f"line {lineno}: bad event name")
            if not isinstance(record["detail"], str):
                return fail(path, f"line {lineno}: bad detail")
            count += 1
    if count == 0:
        return fail(path, "no trace records")
    print(f"validate_obs: {path}: OK ({count} records)")
    return True


def validate_chrome(path):
    with open(path, encoding="utf-8") as handle:
        try:
            doc = json.load(handle)
        except json.JSONDecodeError as err:
            return fail(path, f"invalid JSON: {err}")
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        return fail(path, "missing or empty traceEvents")
    for i, event in enumerate(events):
        for key in ("name", "cat", "ph", "ts", "pid", "tid"):
            if key not in event:
                return fail(path, f"event {i}: missing {key}")
        if event["cat"] not in CATEGORIES:
            return fail(path, f"event {i}: unknown category {event['cat']}")
    print(f"validate_obs: {path}: OK ({len(events)} events)")
    return True


def validate_intervals(path):
    with open(path, encoding="utf-8") as handle:
        try:
            doc = json.load(handle)
        except json.JSONDecodeError as err:
            return fail(path, f"invalid JSON: {err}")
    if doc.get("schema") != "tcsim-intervals-v1":
        return fail(path, f"bad schema {doc.get('schema')!r}")
    for key in ("benchmark", "config", "interval_insts", "intervals"):
        if key not in doc:
            return fail(path, f"missing {key}")
    interval_insts = doc["interval_insts"]
    if not isinstance(interval_insts, int) or interval_insts <= 0:
        return fail(path, f"bad interval_insts {interval_insts!r}")
    intervals = doc["intervals"]
    if not isinstance(intervals, list) or not intervals:
        return fail(path, "missing or empty intervals")
    prev_insts = prev_cycle = -1
    for i, sample in enumerate(intervals):
        if set(sample) != {"end_cycle", "end_insts", "delta", "rates"}:
            return fail(path, f"interval {i}: keys {sorted(sample)}")
        if set(sample["delta"]) != DELTA_KEYS:
            missing = DELTA_KEYS.symmetric_difference(sample["delta"])
            return fail(path, f"interval {i}: delta keys differ: {missing}")
        if set(sample["rates"]) != RATE_KEYS:
            missing = RATE_KEYS.symmetric_difference(sample["rates"])
            return fail(path, f"interval {i}: rate keys differ: {missing}")
        if sample["end_insts"] <= prev_insts:
            return fail(path, f"interval {i}: end_insts not increasing")
        if sample["end_cycle"] <= prev_cycle:
            return fail(path, f"interval {i}: end_cycle not increasing")
        delta = sample["delta"]
        for key, value in delta.items():
            if not isinstance(value, int) or value < 0:
                return fail(path, f"interval {i}: delta.{key}={value!r}")
        if delta["tc_hits"] > delta["tc_lookups"]:
            return fail(path, f"interval {i}: tc_hits > tc_lookups")
        if delta["cond_mispredicts"] > delta["cond_branches"]:
            return fail(path, f"interval {i}: mispredicts > branches")
        # Every sample except the last must land within one retire
        # batch of a boundary; a tolerance of interval_insts is safe
        # for any plausible retire width.
        if i + 1 < len(intervals):
            overshoot = sample["end_insts"] % interval_insts
            if overshoot > interval_insts // 2 and interval_insts > 64:
                return fail(
                    path,
                    f"interval {i}: end_insts {sample['end_insts']} far "
                    f"from a boundary of {interval_insts}")
        prev_insts = sample["end_insts"]
        prev_cycle = sample["end_cycle"]
    print(f"validate_obs: {path}: OK ({len(intervals)} intervals)")
    return True


# Canonical sweep result record: key -> "int" | "float" | "str".
# Array-valued members are checked structurally below.
RESULT_SCALARS = {
    "benchmark": "str", "config": "str", "insts": "int", "warmup": "int",
    "hash": "str", "instructions": "int", "cycles": "int", "ipc": "float",
    "useful_fetches": "int", "fetched_insts": "int",
    "effective_fetch_rate": "float", "cond_branches": "int",
    "cond_mispredicts": "int", "promoted_faults": "int",
    "indirect_mispredicts": "int", "cond_mispredict_rate": "float",
    "resolution_time_sum": "int", "resolution_time_count": "int",
    "mean_resolution_time": "float", "fetches_needing_01": "float",
    "fetches_needing_2": "float", "fetches_needing_3": "float",
    "tc_lookups": "int", "tc_hits": "int", "tc_hit_ratio": "float",
    "icache_misses": "int", "promoted_retired": "int",
}

# Canonical counter arrays: key -> shape (sim::Accounting's 6 cycle
# categories; 7 fetch reasons x fetch widths 0..16).
RESULT_ARRAYS = {
    "fetches_needing_preds": (4,),
    "cycle_cat": (6,),
    "fetch_hist": (7, 17),
}

# Present, as 1, only on `@replay` records.
REPLAY_KEY = "replay"
MAX_RETIRE_GROUP = 64  # presets retire at most 16 instructions a cycle


def is_counter(value):
    """True for what the fragment reader takes as a counter: a decimal
    integer in [0, 2^64)."""
    return (isinstance(value, int) and not isinstance(value, bool)
            and 0 <= value < 1 << 64)


def is_wall_seconds(value):
    """True for what the fragment reader takes as a unit's wall time: a
    finite non-negative number."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(float(value)) and value >= 0
    except OverflowError:  # an integer beyond any double
        return False


def has_shape(value, shape):
    """True when @value is nested lists of counters of @shape."""
    if not shape:
        return is_counter(value)
    return (isinstance(value, list) and len(value) == shape[0]
            and all(has_shape(item, shape[1:]) for item in value))


def check_result_record(path, where, record):
    if not isinstance(record, dict):
        return fail(path, f"{where}: not an object")
    replay = REPLAY_KEY in record
    expected = set(RESULT_SCALARS) | set(RESULT_ARRAYS)
    if replay:
        expected.add(REPLAY_KEY)
    if set(record) != expected:
        diff = expected.symmetric_difference(record)
        return fail(path, f"{where}: keys differ: {sorted(diff)}")
    if replay and (record[REPLAY_KEY] != 1 or record.get("warmup") != 0):
        # tcsim_sweep refuses --replay with --warmup, so only a cold
        # unit can be a replay.
        return fail(path, f"{where}: replay={record[REPLAY_KEY]!r} on a "
                    "warmed record, or not 1")
    for key, kind in RESULT_SCALARS.items():
        value = record[key]
        if kind == "int" and not is_counter(value):
            return fail(path, f"{where}: {key}={value!r} not a counter")
        if kind == "float" and not isinstance(value, (int, float)):
            return fail(path, f"{where}: {key} not a number")
        if kind == "str" and not isinstance(value, str):
            return fail(path, f"{where}: {key} not a string")
    if len(record["hash"]) != 16:
        return fail(path, f"{where}: hash not 16 hex chars")
    for key, shape in RESULT_ARRAYS.items():
        if not has_shape(record[key], shape):
            dims = " x ".join(map(str, shape))
            return fail(path, f"{where}: {key} is not {dims} counters")
    if record["tc_hits"] > record["tc_lookups"]:
        return fail(path, f"{where}: tc_hits > tc_lookups")
    if record["cond_mispredicts"] > record["cond_branches"]:
        return fail(path, f"{where}: mispredicts > branches")
    # A warm-up may overshoot `warmup` by part of a retire group while
    # the window still ends at warmup + insts.
    if record["instructions"] + (
            MAX_RETIRE_GROUP if record["warmup"] > 0 else 0) < record["insts"]:
        return fail(path, f"{where}: ran fewer insts than budgeted")
    return True


def validate_fragment(path):
    with open(path, encoding="utf-8") as handle:
        try:
            doc = json.load(handle)
        except json.JSONDecodeError as err:
            return fail(path, f"invalid JSON: {err}")
    if doc.get("schema") != "tcsim-bench-fragment-v1":
        return fail(path, f"bad schema {doc.get('schema')!r}")
    unit = doc.get("unit")
    if not isinstance(unit, dict):
        return fail(path, "missing unit object")
    for key in ("index", "id", "hash", "benchmark", "config", "insts",
                "warmup"):
        if key not in unit:
            return fail(path, f"unit missing {key}")
    # The fragment reader trusts a fragment only under its own name.
    if os.path.basename(path) != f"{unit['hash']}.json":
        return fail(path, f"file name is not the unit hash {unit['hash']}")
    if not check_result_record(path, "result", doc.get("result")):
        return False
    if doc["result"]["hash"] != unit["hash"]:
        return fail(path, "result hash != unit hash")
    expected_id = f"{unit['benchmark']}@{unit['config']}@{unit['insts']}"
    if REPLAY_KEY in doc["result"]:
        expected_id += "@replay"
    if unit["id"] != expected_id:
        return fail(path, f"unit id {unit['id']!r} != {expected_id!r}")
    timing = doc.get("timing")
    if not isinstance(timing, dict) or set(timing) != {"wall_seconds"}:
        return fail(path, "missing or malformed timing section")
    if not is_wall_seconds(timing["wall_seconds"]):
        return fail(path, "bad timing.wall_seconds "
                          f"{timing['wall_seconds']!r}")
    print(f"validate_obs: {path}: OK (fragment {unit['id']})")
    return True


def validate_results(path):
    with open(path, encoding="utf-8") as handle:
        try:
            doc = json.load(handle)
        except json.JSONDecodeError as err:
            return fail(path, f"invalid JSON: {err}")
    if doc.get("schema") != "tcsim-bench-results-v1":
        return fail(path, f"bad schema {doc.get('schema')!r}")
    matrix_hash = doc.get("matrix_hash")
    if not isinstance(matrix_hash, str) or len(matrix_hash) != 16:
        return fail(path, f"bad matrix_hash {matrix_hash!r}")
    results = doc.get("results")
    if not isinstance(results, list) or not results:
        return fail(path, "missing or empty results")
    if doc.get("units") != len(results):
        return fail(path, f"units {doc.get('units')!r} != {len(results)}")
    seen = set()
    for i, record in enumerate(results):
        if not check_result_record(path, f"result {i}", record):
            return False
        if record["hash"] in seen:
            return fail(path, f"result {i}: duplicate unit {record['hash']}")
        seen.add(record["hash"])
    print(f"validate_obs: {path}: OK ({len(results)} results)")
    return True


def check_metric_delta(path, where, metric):
    if not isinstance(metric, dict) or set(metric) != {
            "name", "baseline", "current", "rel_delta", "regressed"}:
        return fail(path, f"{where}: malformed metric")
    for key in ("baseline", "current", "rel_delta"):
        if not isinstance(metric[key], (int, float)):
            return fail(path, f"{where}: {key} not a number")
    if not isinstance(metric["regressed"], bool):
        return fail(path, f"{where}: regressed not a bool")
    return True


def validate_regression(path):
    with open(path, encoding="utf-8") as handle:
        try:
            doc = json.load(handle)
        except json.JSONDecodeError as err:
            return fail(path, f"invalid JSON: {err}")
    if doc.get("schema") != "tcsim-regression-v1":
        return fail(path, f"bad schema {doc.get('schema')!r}")
    for key in ("rel_threshold", "wall_threshold", "noise_k",
                "wall_noise_sigma", "wall_band", "regressed",
                "missing_in_baseline", "missing_in_current", "units"):
        if key not in doc:
            return fail(path, f"missing {key}")
    if doc["wall_band"] < doc["wall_threshold"]:
        return fail(path, "wall_band below wall_threshold")
    any_regressed = bool(doc["missing_in_current"])
    for i, unit in enumerate(doc["units"]):
        expected = {"id", "benchmark", "config", "regressed", "metrics"}
        if set(unit) - {"wall"} != expected:
            return fail(path, f"unit {i}: keys {sorted(unit)}")
        names = set()
        unit_regressed = False
        for j, metric in enumerate(unit["metrics"]):
            if not check_metric_delta(path, f"unit {i} metric {j}",
                                      metric):
                return False
            names.add(metric["name"])
            unit_regressed |= metric["regressed"]
        if names != {"ipc", "effective_fetch_rate",
                     "cond_mispredict_rate"}:
            return fail(path, f"unit {i}: metric names {sorted(names)}")
        if "wall" in unit:
            if not check_metric_delta(path, f"unit {i} wall",
                                      unit["wall"]):
                return False
            unit_regressed |= unit["wall"]["regressed"]
        if unit["regressed"] != unit_regressed:
            return fail(path, f"unit {i}: regressed flag inconsistent")
        any_regressed |= unit_regressed
    if doc["regressed"] != any_regressed:
        return fail(path, "top-level regressed flag inconsistent")
    print(f"validate_obs: {path}: OK ({len(doc['units'])} units, "
          f"regressed={doc['regressed']})")
    return True


BTRACE_MAGIC = b"TCBTRC01"
BTRACE_HEADER_BYTES = 64
BTRACE_RECORD_BYTES = 16
BTRACE_FORMAT_VERSION = 1
BTRACE_CLASSES = 7  # Cond..Halt


def fnv1a(data):
    h = 0xCBF29CE484222325
    for byte in data:
        h = ((h ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def validate_btrace(path):
    import struct
    try:
        with open(path, "rb") as f:
            blob = f.read()
    except OSError as e:
        return fail(path, str(e))
    if len(blob) < BTRACE_HEADER_BYTES:
        return fail(path, "shorter than the btrace header")
    if blob[:8] != BTRACE_MAGIC:
        return fail(path, "bad btrace magic")
    (fmt, gen, fingerprint, entry_pc, inst_count, record_count,
     records_fnv, header_fnv) = struct.unpack_from("<IIQQQQQQ", blob, 8)
    if fnv1a(blob[:56]) != header_fnv:
        return fail(path, "header checksum mismatch")
    if fmt != BTRACE_FORMAT_VERSION:
        return fail(path, f"unsupported format version {fmt}")
    expected = BTRACE_HEADER_BYTES + BTRACE_RECORD_BYTES * record_count
    if len(blob) != expected:
        return fail(path, f"size {len(blob)} does not match "
                          f"record count {record_count}")
    if fnv1a(blob[BTRACE_HEADER_BYTES:]) != records_fnv:
        return fail(path, "record checksum mismatch")
    if record_count > inst_count:
        return fail(path, "more records than instructions covered")
    for i in range(record_count):
        word0 = struct.unpack_from(
            "<Q", blob, BTRACE_HEADER_BYTES + BTRACE_RECORD_BYTES * i)[0]
        cls = (word0 >> 48) & 0xF
        if cls >= BTRACE_CLASSES:
            return fail(path, f"record {i}: unknown class {cls}")
    print(f"validate_obs: {path}: OK (btrace v{fmt}, generator v{gen}, "
          f"{record_count} records over {inst_count} insts, "
          f"entry=0x{entry_pc:x}, fingerprint=0x{fingerprint:016x})")
    return True


def main():
    validators = {
        "trace-jsonl": validate_trace_jsonl,
        "chrome": validate_chrome,
        "intervals": validate_intervals,
        "fragment": validate_fragment,
        "results": validate_results,
        "regression": validate_regression,
        "btrace": validate_btrace,
    }
    parser = argparse.ArgumentParser(description=__doc__)
    for flag in validators:
        parser.add_argument(f"--{flag}", nargs="+", action="extend",
                            default=[], metavar="PATH")
    args = parser.parse_args()
    jobs = [(validate, path) for flag, validate in validators.items()
            for path in getattr(args, flag.replace("-", "_"))]
    if not jobs:
        parser.error("nothing to validate")
    ok = True
    for validate, path in jobs:
        ok &= validate(path)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
