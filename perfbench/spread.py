#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs perfbench/run.py once per seed for each workload and reports, per
metric, the median of the runs and the distance between the first and third
quartile (statistics.quantiles(values, n=4)) as a share of the median,
next to the metric's bound from BENCHMARK.json:

    python3 perfbench/spread.py --workloads warm_exec --seeds 1-5

A spread under a third of the bound is steady; every metric, setup_s too,
is held to that rule.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench-out")


def seed_list(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default="cold_plan,warm_exec")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    os.makedirs(OUT_DIR, exist_ok=True)

    steady = True
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        for seed in seed_list(args.seeds):
            done = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", "0"], capture_output=True, text=True)
            if done.returncode != 0:
                print(done.stderr[-2000:], file=sys.stderr)
                print(f"{workload} seed {seed}: exit {done.returncode}")
                return 1
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: incorrect output")
                steady = False
            for name, metric in result["metrics"].items():
                values[name].append(metric["value"])
        print(f"== {workload} ({len(values['setup_s'])} seeds, {seconds} s)")
        print(f"{'metric':18}{'median':>14}{'q1':>14}{'q3':>14}"
              f"{'spread':>9}{'bound':>8}")
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            ok = spread < bounds[name] / 3
            steady = steady and ok
            print(f"{name:18}{med:14.6g}{q1:14.6g}{q3:14.6g}"
                  f"{spread:9.4f}{bounds[name]:8.2f}"
                  f"{'' if ok else '  WIDE'}")
        with open(os.path.join(OUT_DIR, f"spread-{workload}.json"), "w") as f:
            json.dump(values, f, indent=1)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
