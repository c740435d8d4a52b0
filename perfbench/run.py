#!/usr/bin/env python3
"""Builds and runs the FTA end-to-end benchmark (see README.md here).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

The first call in a checkout configures and builds the library and the
benchmark binary under .bench_build/ (CMake, Release). Every call then
runs one workload and passes the binary's final JSON line through, after
checking that it carries exactly the metrics BENCHMARK.json declares for
the chosen mode. --selftest runs the benchmark's own statistics test.
Exits non-zero, printing no result, when the build, the run or that check
fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build(targets):
    """Configures once, then brings `targets` up to date."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            # Leave no half-configured tree for the next call to trust.
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    cmd = ["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1),
           "--target"] + targets
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--runners", type=int, default=0,
                   help="city runner threads (default nproc - 1)")
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args()

    if args.selftest:
        if not build(["perfbench_stats_test"]):
            return 1
        return subprocess.run(
            [os.path.join(BUILD, "perfbench_stats_test")]).returncode
    if not args.workload:
        p.error("--workload is required")
    if not build(["perfbench_bin"]):
        log("build failed")
        return 1

    cmd = [os.path.join(BUILD, "perfbench_bin"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--runners", str(args.runners)]
    if args.trace:
        os.makedirs(os.path.join(BUILD, "traces"), exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            BUILD, "traces", f"{args.workload}-seed{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"benchmark exited {proc.returncode}")
        return 1
    result = json.loads(lines[-1])
    want = declared_metrics(args.trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        log(f"metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(want))}")
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
