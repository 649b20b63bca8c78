#!/usr/bin/env python3
"""Build the GPUfs benchmark from source and run its workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

`--workload all` runs every workload in turn and prints each report.

The benchmark is configured and built with CMake (Ninja when present)
in $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when the
variable is unset; build output goes to stderr. Traced runs write a
Chrome trace-event file to <build dir>/traces/. The last line of
standard output is the JSON result; the exit code is the benchmark's.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(base), "perfbench")


def build(out_dir):
    """Configure (once) and build the benchmark binary; return its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "gpufs", "system.hh")):
        sys.exit("perfbench: GPUfs sources not found under " + ROOT)
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", out_dir, "--target", "perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr,
                   timeout=BUILD_TIMEOUT_S)
    return os.path.join(out_dir, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    args = ap.parse_args()

    out_dir = build_dir()
    try:
        binary = build(out_dir)
    except (subprocess.SubprocessError, OSError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 1

    if args.workload != "all":
        return run(binary, out_dir, args.workload, args)
    listed = json.loads(subprocess.run(
        [binary, "--list-metrics"], stdout=subprocess.PIPE, text=True,
        check=True).stdout)
    codes = [run(binary, out_dir, w["name"], args)
             for w in listed["workloads"]]
    return max(codes)


def run(binary, out_dir, workload, args):
    """Run one workload; forward its report; return its exit code."""
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        traces = os.path.join(out_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-file", os.path.join(
            traces, "%s-seed%d.json" % (workload, args.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        well_formed = set(result) == RESULT_KEYS
    except ValueError:
        well_formed = False
    if not well_formed:
        # Keep the report for diagnosis, but print no result line.
        sys.stderr.write(proc.stdout)
        print("perfbench: no result line (exit %d)" % proc.returncode,
              file=sys.stderr)
        return proc.returncode or 1
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
