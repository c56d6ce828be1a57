#!/usr/bin/env python3
"""Builds and runs the tuned multigrid service benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload poisson-large --seed 1 --seconds 20 --trace 0

The first run configures and builds the `perfbench` binary (and the pbmg
library it links) under .bench_build/perfbench; later runs only re-check
the build.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.  Build logs and the run's
human-readable notes go to stderr.

Other modes:
    --regenerate-tables   retrain the pinned tables in perfbench/tables and
                          rewrite their provenance (run inside a git clone)
    --tiny                self-check scale: tiny grids, few requests
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
EXE = os.path.join(BUILD, "perfbench")
WORKLOADS = ("poisson-large", "varcoef-serve", "small-requests")
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


def run_logged(cmd):
    """Runs a build step with its output on stderr; exits on failure."""
    result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        log("command failed (%d): %s" % (result.returncode, " ".join(cmd)))
        sys.exit(1)


def build():
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            log("no pbmg sources next to perfbench/ (missing %s)" % needed)
            sys.exit(1)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        run_logged(["cmake", "-S", HERE, "-B", BUILD,
                    "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_logged(["cmake", "--build", BUILD, "--target", "perfbench",
                "-j", jobs])


def git_commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12",
                              "HEAD"], capture_output=True, text=True,
                             check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run(cmd):
    """Runs the benchmark binary; returns its stdout, or exits on failure."""
    try:
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                                text=True, cwd=ROOT)
    except OSError as err:
        log("cannot start %s: %s" % (cmd[0], err))
        sys.exit(1)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log("run exceeded %d s and was stopped" % RUN_TIMEOUT_S)
        sys.exit(1)
    if proc.returncode != 0:
        log("benchmark exited with code %d" % proc.returncode)
        sys.exit(1)
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--regenerate-tables", action="store_true")
    args = parser.parse_args()
    if not args.regenerate_tables and args.workload is None:
        parser.error("--workload is required")

    build()
    tables = os.path.join(HERE, "tables")
    if args.regenerate_tables:
        run([EXE, "--regenerate-tables", "--tables", tables,
             "--commit", git_commit()])
        return 0

    out_dir = os.path.join(BUILD, "out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--tables", tables, "--out", out_dir]
    if args.tiny:
        cmd.append("--tiny")
    lines = run(cmd).strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log("the benchmark printed no JSON result")
        return 1
    if set(result) != RESULT_KEYS:
        log("malformed result keys: %s" % sorted(result))
        return 1
    for line in lines:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
