#!/usr/bin/env python3
"""Builds the hive-cpp wall-clock benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload tpcds_warm --seed 1 --seconds 20 --trace 0

The engine (src/) and the benchmark (perfbench/src/) are compiled in Release
mode into the build directory ($CARGO_TARGET_DIR, default .bench_build) on
the first run and incrementally afterwards. The benchmark's last stdout line is
the JSON result; build output goes to stderr. With --trace 1 the span trace
is written to <build dir>/traces/<workload>-seed<seed>.json.
"""
import argparse
import fcntl
import os
import shutil
import subprocess
import sys

WORKLOADS = ["tpcds_warm", "ssb_over_memory", "bi_sessions", "acid_etl"]
# A run measures for --seconds plus set-up; anything far beyond is a hang.
RUN_TIMEOUT_S = 170


def build(source_dir, build_dir):
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, ".build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            configure = ["cmake", "-S", source_dir, "-B", build_dir,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
                return False
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        result = subprocess.run(
            ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
            stdout=sys.stderr)
        return result.returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    source_dir = os.path.dirname(os.path.abspath(__file__))
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build(source_dir, build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1

    command = [os.path.join(build_dir, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        command += ["--trace-out", os.path.join(
            build_dir, "traces", f"{args.workload}-seed{args.seed}.json")]
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
