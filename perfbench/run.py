#!/usr/bin/env python3
"""Build and run the OPAC simulator benchmark (see README.md).

    python3 perfbench/run.py --workload stream --seed 1 --seconds 20 --trace 0

Run from the root of a source tree. The first run builds the simulator
from ../src into .bench_build/ (RelWithDebInfo + LTO, the flags users
get); later runs only re-check the build. The last line of standard
output is the result JSON of one workload run; build output goes to
standard error. Exits non-zero on a failed build, a failed correctness
check or a run that overstays its time limit.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench-out")
WORKLOADS = ["stream", "hostbound", "lu", "serve", "serve_crash"]
DEFAULT_SEED = 1
# A run measures for --seconds, then finishes the pass in flight.
RUN_SLACK_S = 60
BUILD_TIMEOUT_S = 840


def build():
    """Configure (once) and build the benchmark binary; return its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("no simulator sources at %s"
                           % os.path.join(ROOT, "src"))
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                  "--target", "opac_perfbench"])
    for cmd in steps:
        subprocess.run(cmd, check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    return os.path.join(BUILD_DIR, "opac_perfbench")


def git_sha():
    """HEAD of the source tree, or "unknown" outside a git checkout."""
    # Only ask git when the tree itself is a repository, so git never
    # searches the directories above it.
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


def run(binary, args):
    """Run one workload; return its exit code."""
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--out-dir", OUT_DIR,
           "--git-sha", git_sha()]
    sys.stdout.flush()
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait(timeout=args.seconds + RUN_SLACK_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("run.py: %s overstayed its time limit" % args.workload,
              file=sys.stderr)
        return 3


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=["full", "small"], default="full",
                    help="small: reduced cases for the self-test")
    args = ap.parse_args()
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    try:
        binary = build()
    except (RuntimeError, OSError, subprocess.SubprocessError) as e:
        print("run.py: build failed: %s" % e, file=sys.stderr)
        return 2
    return run(binary, args)


if __name__ == "__main__":
    sys.exit(main())
