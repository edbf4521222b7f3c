#!/usr/bin/env python3
"""Self-test of the benchmark at tiny scale.

Usage, from the root of the repository:

    python3 perfbench/selftest.py

Checks, for every workload, that both kinds of run emit every metric
BENCHMARK.json names, finite and with its unit; that a per-layer metric
is non-zero only on the workloads whose line-up exercises its layer; that
the layer sum of the traced pass stays within tolerance of its wall; that
a deliberately wrong digest makes the run fail; and that run.py refuses
to run without the repository's sources.  Exits 1 on the first failure.
"""

import json
import math
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
ALL = {"tower-k25", "walk-k100", "real-h2", "floor-fe10"}
JOIN = ALL - {"real-h2"}

# Workloads whose line-up reaches each layer; everywhere else the layer's
# metrics must read 0.
PRESENT = {
    "policy.rand.": ALL,
    "policy.prob.": JOIN,
    "policy.life.": {"tower-k25", "floor-fe10"},
    "policy.heeb.": ALL,
    "policy.lru.": {"real-h2"},
    "policy.lfu.": {"real-h2"},
    "policy.flowexpect.": {"floor-fe10"},
    "join_sim.": JOIN,
    "cache_sim.": {"real-h2"},
    "precompute.": {"walk-k100", "real-h2"},
    "policy.candidates_per_step": JOIN,
    "policy.evictions_per_step": JOIN,
    "policy.dead_candidate_ratio": JOIN,
    "policy.boundary_tie_ratio": JOIN,
    "flow_expect.": {"floor-fe10"},
    "mcmf.": {"floor-fe10"},
    "opt_offline.": {"floor-fe10"},
}

# Where present these may still read 0: allocation counts an optimisation
# can drive to zero, ratios that are legitimately 0 on some line-ups, and
# the overhead estimate, which is a signed difference.
MAY_BE_ZERO = {
    "policy.dead_candidate_ratio",
    "policy.boundary_tie_ratio",
    "flow_expect.law_warm_hit_ratio",
    "gc.major_collections",
    "gc.promoted_words_per_step",
    "bench.trace_overhead_pct",
}

LAYER_SUM_TOLERANCE = 0.2


def check(ok, message):
    if not ok:
        print("selftest FAILED: " + message)
        sys.exit(1)


def run(workload, trace, *extra):
    proc = subprocess.run(
        [EXE, "--workload", workload, "--tiny", "--seconds", "1",
         "--trace", str(trace), *extra],
        stdout=subprocess.PIPE, text=True, timeout=170,
    )
    return proc.returncode, json.loads(proc.stdout.splitlines()[-1])


def present_on(name):
    for prefix, workloads in PRESENT.items():
        if name.startswith(prefix):
            return workloads
    return ALL


def main():
    subprocess.run(["dune", "build", "--root", ROOT, "./perfbench/bench.exe"],
                   cwd=ROOT, check=True)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    check({w["name"] for w in spec["workloads"]} == ALL, "workload names")

    for workload in sorted(ALL):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            code, result = run(workload, trace)
            where = "%s --trace %d" % (workload, trace)
            check(code == 0 and result["correct"] and result["failed"] == 0,
                  where + ": run failed")
            metrics = result["metrics"]
            check(set(metrics) == {m["name"] for m in spec[kind]},
                  where + ": metric names differ from BENCHMARK.json")
            for m in spec[kind]:
                name, got = m["name"], metrics[m["name"]]
                value = got["value"]
                check(got["unit"] == m["unit"], "%s: %s unit" % (where, name))
                check(math.isfinite(value), "%s: %s not finite" % (where, name))
                if workload not in present_on(name):
                    check(value == 0, "%s: %s should be absent" % (where, name))
                elif not (name in MAY_BE_ZERO or m["unit"] == "words"):
                    check(value > 0, "%s: %s should be positive" % (where, name))
            if trace:
                ratio = metrics["bench.layer_sum_ratio"]["value"]
                check(abs(ratio - 1) <= LAYER_SUM_TOLERANCE,
                      "%s: layer sum ratio %.3f" % (where, ratio))
        print("ok  " + workload, flush=True)

    code, result = run("tower-k25", 0, "--corrupt-pin")
    check(code != 0 and not result["correct"] and result["failed"] > 0,
          "a wrong digest must fail the run")
    print("ok  wrong digest detected (%d of %d runs failed)"
          % (result["failed"], result["attempted"]))

    bare = os.path.join(ROOT, "_build", "perfbench-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tower-k25",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, timeout=170,
    )
    shutil.rmtree(bare)
    check(proc.returncode != 0 and proc.stdout == "",
          "run.py must refuse to run without the sources")
    print("ok  run.py refuses a checkout without the sources")


if __name__ == "__main__":
    main()
