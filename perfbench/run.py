#!/usr/bin/env python3
"""Builds and runs the matopt benchmark (see perfbench/README.md).

One workload; the last line of standard output is the result JSON:

    python3 perfbench/run.py --workload warm_exec --seed 1 --seconds 20 --trace 0

Every workload in turn, with a table of all metrics (one row per workload):

    python3 perfbench/run.py --all --seed 1 --seconds 20 --trace 0

The benchmark's own unit tests:

    python3 perfbench/run.py --self-test

Builds go to .bench_build/perfbench and result files to
.bench_build/perfbench-out, both under the repository root. Build output
goes to standard error so the result stays the last line of standard output.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench-out")
WORKLOADS = ["cold_plan", "warm_exec"]
RUN_TIMEOUT_S = 175


def build(target):
    """Configures (once) and builds `target`; False when either step fails."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", target,
                  "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=850)
        except (OSError, subprocess.TimeoutExpired) as err:
            print(f"run.py: {' '.join(step)}: {err}", file=sys.stderr)
            return False
        if done.returncode != 0:
            print(f"run.py: build step failed: {' '.join(step)}",
                  file=sys.stderr)
            return False
    return True


def git_sha():
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_workload(workload, seed, seconds, trace, capture):
    """Runs one workload process. Returns (exit code, stdout or None)."""
    os.makedirs(OUT_DIR, exist_ok=True)
    cmd = [os.path.join(BUILD_DIR, "perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--out", OUT_DIR, "--git-sha", git_sha()]
    try:
        done = subprocess.run(cmd, timeout=RUN_TIMEOUT_S, text=True,
                              stdout=subprocess.PIPE if capture else None)
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"run.py: {workload}: {err}", file=sys.stderr)
        return 1, None
    return done.returncode, done.stdout


def run_all(args):
    results = {}
    for workload in WORKLOADS:
        code, out = run_workload(workload, args.seed, args.seconds,
                                 args.trace, capture=True)
        sys.stdout.write(out or "")
        if code != 0 or not out:
            return code or 1
        results[workload] = json.loads(out.strip().splitlines()[-1])
    names = list(results[WORKLOADS[0]]["metrics"])
    width = max(len(n) for n in names) + 2
    print("\n" + "metric".ljust(width) + "unit".ljust(9) +
          "".join(w.rjust(16) for w in WORKLOADS))
    for name in names:
        unit = results[WORKLOADS[0]]["metrics"][name]["unit"]
        values = [results[w]["metrics"][name]["value"] for w in WORKLOADS]
        print(name.ljust(width) + unit.ljust(9) +
              "".join(f"{v:16.6g}" for v in values))
    for w in WORKLOADS:
        r = results[w]
        print(f"{w}: correct={r['correct']} attempted={r['attempted']} "
              f"failed={r['failed']}")
    summary = os.path.join(
        OUT_DIR, f"summary-seed{args.seed}{'-traced' if args.trace else ''}"
        ".json")
    with open(summary, "w") as f:
        json.dump(results, f, indent=1)
    return 0 if all(r["correct"] for r in results.values()) else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true",
                        help="run every workload and print one table")
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's unit tests")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if args.self_test:
        if not build("perfbench_test"):
            return 1
        return subprocess.run(
            [os.path.join(BUILD_DIR, "perfbench_test")]).returncode
    if not args.all and args.workload is None:
        parser.error("give --workload NAME or --all")
    if not build("perfbench"):
        return 1
    if args.all:
        return run_all(args)
    code, _ = run_workload(args.workload, args.seed, args.seconds, args.trace,
                           capture=False)
    return code


if __name__ == "__main__":
    sys.exit(main())
