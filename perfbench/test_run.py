#!/usr/bin/env python3
"""Self-tests of the benchmark, at the budgets it measures.

    python3 perfbench/test_run.py

Builds the driver like run.py does, runs each workload for its minimum
number of rounds (--seconds 0; 2 to 3 minutes in all), then checks that
simulated digests repeat across runs and sweep thread counts, that
spans nest with non-negative self times, and that every workload prints
every metric under a well-formed name.
"""

import json
import os
import re
import subprocess
import sys
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run as bench  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def run_bench(workload, trace=0, seed=0, threads=None):
    """Run run.py; @return (final JSON line, raw driver document)."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--trace", str(trace)]
    if threads:
        cmd += ["--threads", str(threads)]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          check=True, timeout=170)
    raw = bench.raw_path(workload, seed, trace).read_bytes()
    return (json.loads(done.stdout.strip().splitlines()[-1]),
            bench.load_raw(raw))


def round_digests(doc):
    return [r["digest"] for r in doc["rounds"]]


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        bench.build(time.time() + 880)
        cls.runs = {w: run_bench(w) for w in bench.WORKLOADS}
        cls.traced = {w: run_bench(w, trace=1) for w in bench.WORKLOADS}

    def test_runs_are_correct(self):
        for workload, (result, doc) in self.runs.items():
            with self.subTest(workload=workload):
                self.assertTrue(result["correct"], doc["failures"])
                self.assertEqual(result["failed"], 0)
                self.assertEqual(result["attempted"],
                                 len(doc["units"]) * len(doc["rounds"]))

    def test_every_metric_on_every_workload(self):
        for workload in bench.WORKLOADS:
            with self.subTest(workload=workload):
                e2e = self.runs[workload][0]["metrics"]
                self.assertEqual(list(e2e), [m[0] for m in bench.END_TO_END])
                layers = self.traced[workload][0]["metrics"]
                self.assertEqual(list(layers),
                                 [m[0] for m in bench.PER_LAYER])
                for name, _, _ in bench.END_TO_END:
                    self.assertGreater(e2e[name]["value"], 0)

    def test_names_and_units_are_well_formed(self):
        names = [m[0] for m in bench.END_TO_END + bench.PER_LAYER]
        self.assertEqual(len(names), len(set(names)))
        for name, unit, _ in bench.END_TO_END + bench.PER_LAYER:
            self.assertTrue(NAME.fullmatch(name), name)
            self.assertTrue(UNIT.fullmatch(unit), unit)

    def test_benchmark_json_lists_the_printed_metrics(self):
        spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
        for key, printed in (("end_to_end", bench.END_TO_END),
                             ("per_layer", bench.PER_LAYER)):
            with self.subTest(key=key):
                self.assertEqual(
                    [(m["name"], m["unit"], m["better"]) for m in spec[key]],
                    list(printed))
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(bench.WORKLOADS))

    def test_digest_repeats_across_runs(self):
        for workload in bench.WORKLOADS:
            with self.subTest(workload=workload):
                first = self.runs[workload][1]
                again = run_bench(workload)[1]
                self.assertEqual(round_digests(first), round_digests(again))
                self.assertEqual(first["digest"], round_digests(first)[0])
                # core runs the same programs every round; the others
                # draw new ones every untraced round.
                distinct = 1 if workload == "core" else len(first["rounds"])
                self.assertEqual(len(set(round_digests(first))), distinct)

    def test_tracing_does_not_change_digest(self):
        for workload in bench.WORKLOADS:
            with self.subTest(workload=workload):
                traced = round_digests(self.traced[workload][1])
                self.assertEqual(traced[0::2], traced[1::2])
                self.assertEqual(traced[0::2],
                                 round_digests(self.runs[workload][1])[:2])

    def test_sweep_digest_independent_of_threads(self):
        one = run_bench("sweep", threads=1)[1]
        many = run_bench("sweep", threads=os.cpu_count() or 1)[1]
        self.assertEqual(one["threads"], 1)
        self.assertEqual(round_digests(one), round_digests(many))
        self.assertEqual(round_digests(self.runs["sweep"][1]),
                         round_digests(one))

    def test_seed_changes_programs_except_core(self):
        other = run_bench("sweep", seed=7)[1]
        self.assertNotEqual(self.runs["sweep"][1]["digest"], other["digest"])
        other = run_bench("core", seed=7)[1]
        self.assertEqual(self.runs["core"][1]["digest"], other["digest"])

    def test_spans_nest_with_nonnegative_self_time(self):
        for workload in bench.WORKLOADS:
            with self.subTest(workload=workload):
                spans = bench.flatten_spans(self.traced[workload][1])
                self.assertTrue(spans)
                by_id = {s["id"]: s for s in spans}
                for span in spans:
                    self.assertLessEqual(span["start_ns"], span["end_ns"])
                    if span["parent"] is None:
                        self.assertEqual(span["name"], "workload")
                        continue
                    parent = by_id[span["parent"]]
                    self.assertLess(parent["id"], span["id"])
                    self.assertLessEqual(parent["start_ns"],
                                         span["start_ns"])
                    self.assertLessEqual(span["end_ns"], parent["end_ns"])
                for totals in bench.self_times(spans).values():
                    for name, value in totals.items():
                        self.assertGreaterEqual(value, 0, name)


if __name__ == "__main__":
    unittest.main()
