#!/usr/bin/env python3
"""The benchmark's own tests, run on tiny (--smoke) cells.

    python3 perfbench/test_bench.py        # from the repository root

- every workload prints every metric BENCHMARK.json names, with its unit,
  in both the timed (--trace 0) and the per-layer (--trace 1) run;
- two runs with the same seed give identical per-layer counts and digests;
- a different seed changes the generated inputs (cell seeds and digests).
"""

import csv
import json
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
OUT = ROOT / ".bench_build" / "out"

# Per-layer metrics measured in host time; every other one is a count or a
# ratio of counts (or simulated time) and must repeat exactly for a seed.
HOST_TIME = {
    "sim.loop_ns_per_event", "aqm.replay_ns_per_pkt", "exp.setup_us_per_flow",
    "exp.finalize_s", "exp.sweep_idle_frac", "exp.chunk_wall_p50_ms",
    "obs.trace_overhead_frac", "prof.sched_run_s.p50", "prof.sched_run_s.p99",
}


def run(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload, "--seed",
         str(seed), "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, cwd=str(ROOT), timeout=900)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} seed {seed} trace {trace} exited {proc.returncode}:\n"
                             f"{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    out = OUT / f"{workload}-seed{seed}-trace{trace}-smoke"
    summary = json.loads((out / "summary.json").read_text())
    with open(out / "cells.csv", newline="") as f:
        cells = list(csv.DictReader(f))
    return lines, json.loads(lines[-1]), summary, cells


class Smoke(unittest.TestCase):
    def test_every_metric_printed_with_unit(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            for w in WORKLOADS:
                with self.subTest(workload=w, trace=trace):
                    lines, result, _, _ = run(w, 3, trace)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, want)
                    text = "\n".join(lines[:-1])
                    for name, unit in want.items():
                        self.assertRegex(text, rf"(?m)^{name.replace('.', '[.]')}\s+\S+\s+"
                                               rf"{unit.replace('/', '/')}\b")
                    if trace == 0:
                        self.assertRegex(text, r"(?m)^cells_failed_frac\s+0\.0+\s+frac")

    def test_same_seed_same_counts(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                _, a, sa, _ = run(w, 5, 1)
                _, b, sb, _ = run(w, 5, 1)
                counts = sorted(set(a["metrics"]) - HOST_TIME)
                self.assertGreater(len(counts), 20)
                for name in counts:
                    self.assertEqual(a["metrics"][name]["value"], b["metrics"][name]["value"],
                                     name)
                self.assertEqual(sa["digest_fold"], sb["digest_fold"])

    def test_other_seed_changes_inputs(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                _, _, sa, ca = run(w, 5, 0)
                _, _, sb, cb = run(w, 6, 0)
                ids_a = {c["id"] for c in ca if c["pass"] == "0"}
                ids_b = {c["id"] for c in cb if c["pass"] == "0"}
                self.assertTrue(ids_a.isdisjoint(ids_b))
                self.assertNotEqual(sa["digest_fold"], sb["digest_fold"])


if __name__ == "__main__":
    unittest.main()
