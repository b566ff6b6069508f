#!/usr/bin/env python3
"""Seed spreads and parent/change A/B runs of the end-to-end benchmark.

    # spread of every end-to-end metric over ten seeds, one workload
    python3 perfbench/stats.py spread --workload web-churn-10g --seeds 1-10 [--json F]

    # A/B: alternating parent/change pairs, same seed within a pair
    python3 perfbench/stats.py ab --parent ../parent --change . --workload web-churn-10g \
        --seeds 101-110

Both read the metric names, units, directions and bounds from BENCHMARK.json
and run `python3 perfbench/run.py` in each checkout. The A/B rule is the one
perfbench/README.md states: a gain needs the change to win at least 9 of 10
pairs (ties count for neither) and a median difference larger than the
parent's own quartile spread; a regression is a change median worse than the
parent's by more than the metric's bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(checkout, workload, seed, seconds, trace=0):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=str(checkout), capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{checkout}: {workload} seed {seed} failed (exit {proc.returncode})\n"
                 f"{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{checkout}: {workload} seed {seed} reported incorrect output")
    return {k: v["value"] for k, v in result["metrics"].items()}


def quartiles(values):
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return q[0], statistics.median(values), q[2]


def spread(args):
    values = {}
    for seed in seeds_arg(args.seeds):
        m = run(ROOT, args.workload, seed, args.seconds)
        print(f"seed {seed}: " + " ".join(f"{k}={v:.6g}" for k, v in m.items()), flush=True)
        for k, v in m.items():
            values.setdefault(k, []).append(v)
    report = {}
    for spec in SPEC["end_to_end"]:
        v = values[spec["name"]]
        q1, med, q3 = quartiles(v)
        rel = (q3 - q1) / med if med else float("nan")
        report[spec["name"]] = {"unit": spec["unit"], "median": med, "q1": q1, "q3": q3,
                                "spread": rel, "bound": spec["bound"], "n": len(v)}
        flag = "" if rel <= spec["bound"] / 3 else ("  > bound/3" if rel <= spec["bound"]
                                                     else "  > BOUND")
        print(f"{spec['name']:20s} median {med:12.6g} {spec['unit']:5s} q1 {q1:.6g} q3 {q3:.6g}"
              f"  spread {rel:.4f} (bound {spec['bound']}){flag}")
    if args.json:
        last = (ROOT / ".bench_build" / "out" /
                f"{args.workload}-seed{seeds_arg(args.seeds)[-1]}-trace0" / "summary.json")
        host = json.loads(last.read_text())["host"]
        Path(args.json).write_text(json.dumps({"workload": args.workload, "seconds": args.seconds,
                                               "host": host, "metrics": report}, indent=2) + "\n")


def ab(args):
    parent, change = Path(args.parent).resolve(), Path(args.change).resolve()
    runs = {"parent": [], "change": []}
    for i, seed in enumerate(seeds_arg(args.seeds)):
        order = [("parent", parent), ("change", change)]
        if i % 2 == 1:
            order.reverse()  # alternate which side runs first
        for side, checkout in order:
            runs[side].append(run(checkout, args.workload, seed, args.seconds))
        print(f"pair {i + 1} (seed {seed}) done", flush=True)
    pairs = len(runs["parent"])
    for spec in SPEC["end_to_end"]:
        name, higher = spec["name"], spec["better"] == "higher"
        p = [r[name] for r in runs["parent"]]
        c = [r[name] for r in runs["change"]]
        p1, pm, p3 = quartiles(p)
        c1, cm, c3 = quartiles(c)
        wins = sum(1 for a, b in zip(p, c) if (b > a if higher else b < a))
        losses = sum(1 for a, b in zip(p, c) if (b < a if higher else b > a))
        worse = (pm - cm) / pm if higher else (cm - pm) / pm
        all_better = min(c) > max(p) if higher else max(c) < min(p)
        if wins >= 0.9 * pairs and worse < 0 and abs(cm - pm) > (p3 - p1):
            verdict = "GAIN"
        elif worse > spec["bound"]:
            verdict = "REGRESSION"
        elif (p3 - p1) / pm > spec["bound"] and not all_better:
            verdict = "unresolved (spread wider than bound)"
        else:
            verdict = "no regression"
        print(f"{name:20s} parent {pm:.6g} [{p1:.6g}, {p3:.6g}]  change {cm:.6g} "
              f"[{c1:.6g}, {c3:.6g}]  wins {wins}/{pairs} losses {losses}  {verdict}")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)
    s = sub.add_parser("spread")
    s.add_argument("--workload", required=True)
    s.add_argument("--seeds", default="1-10")
    s.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    s.add_argument("--json")
    a = sub.add_parser("ab")
    a.add_argument("--parent", required=True)
    a.add_argument("--change", required=True)
    a.add_argument("--workload", required=True)
    a.add_argument("--seeds", default="101-110")
    a.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    args = ap.parse_args()
    spread(args) if args.cmd == "spread" else ab(args)


if __name__ == "__main__":
    main()
