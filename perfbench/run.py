#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload linial-reg16 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest

Run it from the root of a checkout. The build goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) and scratch
files, corpus and trace files to .bench_build/work; nothing is written
outside the checkout. Build output goes to stderr, so the last line of
stdout is the result object printed by the benchmark binary.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ["linial-reg16", "pipeline-reg64", "serve-zipf"]


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build(root, build_dir, targets):
    """Configures (once) and builds `targets`; False when either fails."""
    src = os.path.join(root, "perfbench")
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        log("run.py: no library sources under", os.path.join(root, "src"))
        return False
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        rc = subprocess.call(
            ["cmake", "-S", src, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr)
        if rc != 0:
            return False
    jobs = str(os.cpu_count() or 1)
    return subprocess.call(
        ["cmake", "--build", build_dir, "-j", jobs, "--target"] + targets,
        stdout=sys.stderr) == 0


def git_rev(root):
    try:
        return subprocess.run(
            ["git", "-C", root, "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the benchmark's own tests")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")

    root = os.getcwd()
    out = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = os.path.join(out, "perfbench")
    work_dir = os.path.join(out, "work")

    if args.selftest:
        if not build(root, build_dir, ["perfbench_test"]):
            return 1
        return subprocess.call([os.path.join(build_dir, "bin", "perfbench_test")])

    if not build(root, build_dir, ["ldc_perf"]):
        log("run.py: build failed")
        return 1
    binary = os.path.join(build_dir, "bin", "ldc_perf")
    rc = 0
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        rc |= subprocess.call([
            binary, "--workload", workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--work-dir", work_dir, "--git-rev", git_rev(root)])
    return rc


if __name__ == "__main__":
    sys.exit(main())
