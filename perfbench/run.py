#!/usr/bin/env python3
"""Builds and runs the tarpit benchmark from a checkout of the repository.

    python3 perfbench/run.py --workload <name> --seed N --seconds S --trace 0|1

Run from the repository root. The first run builds perfbench/ (which
compiles the library from src/) into .bench_build/; later runs reuse it.
Every run first executes the benchmark's self-test, then the workload.
The workload's report goes to standard output; its last line is the
JSON result. Build output goes to standard error. Any failure exits
non-zero without printing a result.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.getcwd()
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build")
OUT_DIR = ".bench_out"  # Databases and trace files, under the checkout.
WORKLOADS = ("extract_sim", "point_read_sim", "point_read_async",
             "wire_sql_mixed")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "concurrent_db.h")):
        fail("src/ not found: run from the root of a tarpit checkout")
    generator = ["-G", "Ninja"] if _have("ninja") else []
    steps = [
        ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo", *generator],
        ["cmake", "--build", BUILD_DIR, "-j", str(min(4, os.cpu_count() or 1))],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))


def _have(program):
    return any(os.access(os.path.join(d, program), os.X_OK)
               for d in os.environ.get("PATH", "").split(os.pathsep))


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this kind of run."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    selftest = subprocess.run([os.path.join(BUILD_DIR, "perfbench_selftest")],
                              stdout=sys.stderr, stderr=sys.stderr)
    if selftest.returncode:
        fail("self-test failed")

    cmd = [os.path.join(BUILD_DIR, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", OUT_DIR]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if proc.returncode:
        sys.stderr.write(proc.stdout)
        fail(f"workload exited with code {proc.returncode}")
    try:
        result = json.loads(proc.stdout.rstrip("\n").split("\n")[-1])
    except ValueError:
        sys.stderr.write(proc.stdout)
        fail("no JSON result line")
    missing = expected_metrics(args.trace) ^ set(result["metrics"])
    if missing:
        fail("metrics disagree with BENCHMARK.json: " + ", ".join(sorted(missing)))
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
