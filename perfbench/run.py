#!/usr/bin/env python3
"""Entry point of the serving benchmark (README.md beside this file).

    python3 perfbench/run.py --workload mlp_closed --seed 1 --seconds 20 --trace 0

Run from the repository root. Builds this directory's CMake project (the
vsq library from src/ plus the load generator) into $CARGO_TARGET_DIR or
.bench_build, runs the benchmark's self-tests, writes the builtin .vsqa
archives, then runs one workload. Build and set-up chatter goes to stderr;
the last stdout line is the result JSON. Exits non-zero, without a result
line, when the build, the self-tests or the archive generation fail.
"""
import argparse
import os
import subprocess
import sys

WORKLOADS = ("mlp_closed", "bert_open", "mixed_net")
RUN_TIMEOUT_S = 170  # the workload binary itself; the build is not capped


def step(cmd, timeout=None):
    """Run a set-up step with its output on stderr; True when it succeeded."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, timeout=timeout).returncode == 0
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: {cmd[0]}: {e}", file=sys.stderr)
        return False


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    src = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "perfbench")
    archives = os.path.join(build, "archives")
    traces = os.path.join(build, "traces")
    binary = os.path.join(build, "perfbench_serve")

    if not (step(["cmake", "-S", src, "-B", build, "-DCMAKE_BUILD_TYPE=Release"])
            and step(["cmake", "--build", build, "-j", "4"])
            and step([os.path.join(build, "perfbench_selftest")], timeout=60)):
        print("perfbench: build or self-tests failed", file=sys.stderr)
        return 1
    os.makedirs(archives, exist_ok=True)
    os.makedirs(traces, exist_ok=True)
    if not step([binary, f"--generate={archives}"], timeout=120):
        print("perfbench: archive generation failed", file=sys.stderr)
        return 1

    cmd = [binary, f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}",
           f"--archives={archives}", f"--out={traces}"]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
