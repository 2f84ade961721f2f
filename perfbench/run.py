#!/usr/bin/env python3
"""Builds the benchmark harness from source and runs one workload.

Usage (from the repository root):
  python3 perfbench/run.py --workload plan-cold --seed 1 --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR (default .bench_build) at the repository
root; spans and run records land in its runs/ subdirectory. The harness's last
line of standard output is the result object described in BENCHMARK.md.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The harness bounds its own phases; this is the backstop if it hangs.
RUN_TIMEOUT_S = 170


def main():
    if not os.path.isfile(os.path.join(ROOT, "src", "service", "estimator_service.h")):
        print("perfbench: library sources (src/) not found next to perfbench/",
              file=sys.stderr)
        return 2
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "fj_perfbench", "-j", jobs],
    ]
    for step in steps:
        # Build output goes to stderr so the result stays the last stdout line.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("perfbench: build failed", file=sys.stderr)
            return 2
    runs_dir = os.path.join(build_dir, "runs")
    os.makedirs(runs_dir, exist_ok=True)
    cmd = [os.path.join(build_dir, "fj_perfbench")] + sys.argv[1:] + ["--out", runs_dir]
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: harness timed out", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
