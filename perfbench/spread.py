#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage, from the root of the repository:

    python3 perfbench/spread.py --workload real-h2 --seeds 1 2 3 4 5

Runs perfbench/run.py once per seed (--trace 0) and prints, per metric,
the median, the quartile spread (Q3 - Q1) / median and that spread as a
share of the metric's bound in BENCHMARK.json.  A benchmark is steady
when every spread except setup_s stays below a third of its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    parser.add_argument("--seconds", type=int)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in args.seeds:
        out = subprocess.run(
            [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
        ).stdout
        result = json.loads(out.splitlines()[-1])
        assert result["correct"], result
        for name, v in result["metrics"].items():
            values[name].append(v["value"])
        print("seed %d: %s" % (seed, {k: v[-1] for k, v in values.items()}),
              flush=True)
    for m in spec["end_to_end"]:
        xs = values[m["name"]]
        med = statistics.median(xs)
        q = statistics.quantiles(xs, n=4)
        spread = (q[2] - q[0]) / med
        print("%-14s median %-12.6g spread %6.2f%%  (%.2f of bound %.2f)" % (
            m["name"], med, 100 * spread, spread / m["bound"], m["bound"]))


if __name__ == "__main__":
    main()
