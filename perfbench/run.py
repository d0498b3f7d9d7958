#!/usr/bin/env python3
"""Builds the perfbench binary from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload tpch_serial --seed 1 --seconds 24 --trace 0

The perfbench binary is built with CMake into .bench_build/perfbench (the first
run configures and compiles the engine library, later runs only relink what
changed). Build output goes to stderr.

An untraced run (--trace 0) is three processes, one after the other, each
setting up and measuring the same seeded workload for a third of --seconds.
On the shared host this was tuned on, a whole process now and then runs up
to 1.85x slower than the next one with the same inputs, so each metric is
the lowest of the three readings, and setup_s their median. A traced run is
one process. Each process's info line is passed through; the last line is
the JSON result. Durable tables live in a per-process directory under
.bench_build that is removed when the process ends.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

WORKLOADS = ("tpch_serial", "tpch_sharded", "tpch_spill", "htap_durable")

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
DATA_ROOT = os.path.join(ROOT, ".bench_build", "perfbench-data")

# Processes of an untraced run.
PROCESSES = 3
# Seconds all processes of a run may take together, after the build.
RUN_LIMIT_S = 170


def build():
    """Configures (once) and builds the binary; returns its path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("perfbench: build step failed: " + " ".join(cmd))
    return os.path.join(BUILD_DIR, "perfbench")


def run_process(binary, args, seconds, deadline):
    """Runs the binary once; returns its result dict, or exits on failure."""
    data_dir = os.path.join(DATA_ROOT, "%s-%d" % (args.workload, os.getpid()))
    shutil.rmtree(data_dir, ignore_errors=True)
    os.makedirs(data_dir)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--trace", str(args.trace),
           "--data-dir", data_dir]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1, deadline - time.time()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        sys.exit("perfbench: run exceeded its time limit")
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(proc.returncode or 1)
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def combine(results):
    """One result from the processes' results: see the module docstring."""
    metrics = {}
    for name, metric in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        value = statistics.median(values) if name == "setup_s" else min(values)
        metrics[name] = {"value": value, "unit": metric["unit"]}
    return {"correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        sys.exit("perfbench: --seconds must be at least 1")

    binary = build()
    deadline = time.time() + RUN_LIMIT_S
    processes = 1 if args.trace else PROCESSES
    results = [run_process(binary, args, args.seconds / processes, deadline)
               for _ in range(processes)]
    print(json.dumps(combine(results)))


if __name__ == "__main__":
    main()
