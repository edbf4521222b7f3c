#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload tower-k25 --seed 42 --seconds 20 --trace 0

Builds perfbench/bench.exe from source with dune, runs it in a fresh
process and prints its report.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics; with
--trace 0 the metrics are the end-to-end metrics of BENCHMARK.json, with
--trace 1 its per-layer metrics.  Exits non-zero, printing no result,
when the sources are missing or the build or the run fails.
"""

import argparse
import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
SOURCES = ["dune-project", "lib", os.path.join("perfbench", "dune")]
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    return 1


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"], spec["workloads"]


def valid(result, metrics):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys must be correct, attempted, failed and metrics"
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
        return "attempted must be a whole number of at least 1"
    if not isinstance(result["failed"], int):
        return "failed must be a whole number"
    got = result["metrics"]
    if set(got) != {m["name"] for m in metrics}:
        return "metric names differ from BENCHMARK.json"
    for m in metrics:
        value = got[m["name"]]
        if value.get("unit") != m["unit"]:
            return "%s: unit differs from BENCHMARK.json" % m["name"]
        if not isinstance(value.get("value"), (int, float)) or not math.isfinite(
            value["value"]
        ):
            return "%s: value is not a finite number" % m["name"]
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    missing = [s for s in SOURCES if not os.path.exists(os.path.join(ROOT, s))]
    if missing:
        return fail("repository sources missing: " + ", ".join(missing))
    metrics, workloads = expected_metrics(args.trace)
    if args.workload not in {w["name"] for w in workloads}:
        return fail("unknown workload " + args.workload)

    # The dune cache lives outside the checkout; keep every write inside it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    for var in ("SSJ_OBS", "SSJ_OBS_FILE", "SSJ_JOBS"):
        env.pop(var, None)
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ROOT, "./perfbench/bench.exe"],
            cwd=ROOT, env=env, timeout=BUILD_TIMEOUT_S,
            stdout=sys.stderr, stderr=sys.stderr,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        return fail("build failed: %s" % e)
    if build.returncode != 0:
        return fail("build failed")

    command = [
        EXE, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    try:
        run = subprocess.run(
            command, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S,
            stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        return fail("run failed: %s" % e)
    lines = run.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(run.stdout)
        return fail("run printed no result (exit code %d)" % run.returncode)
    if run.returncode == 0:
        problem = valid(result, metrics)
        if problem:
            sys.stderr.write(run.stdout)
            return fail(problem)
    sys.stdout.write(run.stdout)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
