#!/usr/bin/env python3
"""Fast self-check of the benchmark: tiny grids and a few requests.

    python3 perfbench/self_check.py

Runs every workload named in BENCHMARK.json, and small-requests (kept
runnable but out of BENCHMARK.json, see README.md), once untraced and once
traced at self-check scale.  Asserts that each run prints exactly the
metrics BENCHMARK.json names for that mode, each with its unit and a
finite value, and that no request failed (failed_frac = failed /
attempted = 0).  Exits 0 when every check holds.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXTRA_WORKLOADS = ("small-requests",)


def check_run(workload, trace, expected):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "1", "--seconds", "1", "--trace", str(trace),
           "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    problems = []
    if proc.returncode != 0:
        return ["exit code %d: %s" % (proc.returncode, proc.stderr[-800:])]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys %s" % sorted(result))
    if result.get("attempted", 0) < 1:
        problems.append("no request attempted")
    if result.get("failed") != 0 or result.get("correct") is not True:
        problems.append("failed_frac %s/%s, correct=%s" % (
            result.get("failed"), result.get("attempted"),
            result.get("correct")))
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        problems.append("missing %s, unexpected %s" % (
            sorted(set(expected) - set(metrics)),
            sorted(set(metrics) - set(expected))))
    for name, unit in expected.items():
        entry = metrics.get(name)
        if entry is None:
            continue
        if set(entry) != {"value", "unit"} or entry["unit"] != unit:
            problems.append("%s: %s (want unit %s)" % (name, entry, unit))
        value = entry.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append("%s: value %r is not a finite number"
                            % (name, value))
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = 0
    workloads = [w["name"] for w in spec["workloads"]] + list(EXTRA_WORKLOADS)
    for workload in workloads:
        for trace in (0, 1):
            problems = check_run(workload, trace, expected[trace])
            status = "ok" if not problems else "FAIL"
            print("%-16s trace=%d %s" % (workload, trace, status))
            for problem in problems:
                print("    " + problem)
            failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
