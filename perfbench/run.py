#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1 [--smoke]

Run from the repository root. The benchmark binary is built from source
(perfbench/CMakeLists.txt compiles ../src) into .bench_build/ as a Release
build, then run once per workload, each in its own process so peak RSS is
per workload. Per-run output (cells.csv, summary.json, spans.json) lands in
.bench_build/out/<workload>-seed<N>-trace<T>/. The last stdout line is one
JSON object with the keys correct, attempted, failed and metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "elephant_perfbench"
OUT = ROOT / ".bench_build" / "out"
WORKLOADS = ["paper-1g-fifo-sweep", "hibw-25g-fqcodel", "web-churn-10g"]
RUN_TIMEOUT_S = 175


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the Release benchmark; output goes to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log("error: no simulator sources at src/ (run from a full checkout)")
        return False
    jobs = str(min(os.cpu_count() or 1, 4))
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"]
                     + gen)
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("error: benchmark build failed: " + " ".join(cmd))
            return False
    return BINARY.is_file()


def source_id():
    """git commit when available, else a digest of the simulator sources."""
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            return sha.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return "src-sha256:" + h.hexdigest()[:16]


def run_one(workload, args, commit):
    """Runs one workload; returns (exit code, last-line JSON or None, stdout lines)."""
    tag = f"{workload}-seed{args.seed}-trace{args.trace}" + ("-smoke" if args.smoke else "")
    out = OUT / tag
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    cmd = [str(BINARY), "--workload", workload, "--seed", str(args.seed), "--seconds",
           str(args.seconds), "--trace", str(args.trace), "--out", str(out), "--commit", commit]
    if args.smoke:
        cmd.append("--smoke")
    env = {k: v for k, v in os.environ.items()
           if k not in ("ELEPHANT_DURATION_SCALE", "ELEPHANT_REPS", "ELEPHANT_RESULTS_DIR")}
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=str(ROOT))
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log(f"error: {workload} exceeded {RUN_TIMEOUT_S} s")
        return 1, None, []
    lines = stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return proc.returncode, result, lines


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny cells: checks wiring, not speed")
    args = ap.parse_args()

    if not build():
        return 2
    commit = source_id()

    if args.workload != "all":
        code, result, lines = run_one(args.workload, args, commit)
        if result is None:
            sys.stdout.write("\n".join(lines[:-1] if lines else []) + "\n")
            log(f"error: {args.workload} printed no result (exit {code})")
            return code or 1
        sys.stdout.write("\n".join(lines) + "\n")
        return code

    # All workloads, each in its own process; one combined line at the end.
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for w in WORKLOADS:
        code, result, lines = run_one(w, args, commit)
        sys.stdout.write("\n".join(lines[:-1] if result else lines) + "\n\n")
        if result is None:
            log(f"error: {w} printed no result (exit {code})")
            return code or 1
        worst = worst or code
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][f"{w}:{name}"] = m
    print(json.dumps(combined))
    return worst


if __name__ == "__main__":
    sys.exit(main())
