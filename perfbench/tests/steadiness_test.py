#!/usr/bin/env python3
"""Checks of the benchmark against BENCHMARK.json.

1. The metric catalogue and workloads the binary reports
   (`perfbench --list-metrics`) are exactly those BENCHMARK.json lists.
2. Steadiness: one workload runs as two alternating sets of runs over
   the same seeds; for each end-to-end metric, the median of the second
   set must lie within the metric's bound of the median of the first
   (relative to the smaller of the two). Every run must verify its
   bytes, and each result line must have exactly the keys correct,
   attempted, failed and metrics.

    python3 perfbench/tests/steadiness_test.py --binary BUILD/perfbench
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
WORKLOAD = "hot_hits"
SECONDS = 3
SEEDS = (1, 2, 3)


def run(binary, seed):
    proc = subprocess.run(
        [binary, "--workload", WORKLOAD, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", "0"],
        stdout=subprocess.PIPE, text=True, timeout=180)
    result = json.loads(proc.stdout.strip().split("\n")[-1])
    return proc.returncode, result


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--binary", required=True)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    listed = json.loads(subprocess.run(
        [args.binary, "--list-metrics"], stdout=subprocess.PIPE, text=True,
        check=True).stdout)
    errors = []
    for key in ("end_to_end", "per_layer"):
        want = [(m["name"], m["unit"], m["better"]) for m in bench[key]]
        got = [(m["name"], m["unit"], m["better"]) for m in listed[key]]
        if want != got:
            errors.append("%s differs from BENCHMARK.json:\n  json %s\n"
                          "  code %s" % (key, want, got))
    if bench["workloads"] != listed["workloads"]:
        errors.append("workloads differ from BENCHMARK.json:\n  json %s\n"
                      "  code %s" % (bench["workloads"],
                                     listed["workloads"]))

    # The two sets alternate, so a stretch of host load hits both alike.
    sets = ([], [])
    for seed in SEEDS:
        for runs in sets:
            runs.append(run(args.binary, seed))
    for rc, result in sets[0] + sets[1]:
        if rc != 0 or not result["correct"]:
            errors.append("run failed: exit %d, %s" % (rc, result))
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            errors.append("bad result keys %s" % sorted(result))
    print("%s, seeds %s, %d s per run; medians of each set:" % (
        WORKLOAD, SEEDS, SECONDS))
    for m in bench["end_to_end"]:
        va, vb = (statistics.median(r["metrics"][m["name"]]["value"]
                                    for _, r in runs) for runs in sets)
        diff = abs(va - vb) / min(va, vb) if min(va, vb) > 0 else float("inf")
        status = "ok" if diff <= m["bound"] else "UNSTEADY"
        print("%-16s %14.6g %14.6g  diff %.4f  bound %.2f  %s" % (
            m["name"], va, vb, diff, m["bound"], status))
        if diff > m["bound"]:
            errors.append("%s moved %.3f between sets, bound %.2f" % (
                m["name"], diff, m["bound"]))

    for e in errors:
        print("FAIL:", e)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
