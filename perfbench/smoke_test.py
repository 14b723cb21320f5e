#!/usr/bin/env python3
"""Smoke test of the benchmark harness: every workload, both modes, in seconds.

Run from the repository root:

    python3 perfbench/smoke_test.py

Each workload runs on tiny inputs (--smoke) for one second untraced and one
second traced. The test checks that the result line has exactly the keys
the benchmark contract names, that the output checks passed, and that the
metrics are exactly the end-to-end (untraced) or per-layer (traced) metrics
BENCHMARK.json declares, each with its declared unit and a finite value.
Exits 0 when everything holds, 1 otherwise.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def check_run(spec, workload, trace):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               workload, "--seed", "7", "--seconds", "1", "--trace",
               str(trace), "--smoke"]
    result = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True, timeout=600)
    if result.returncode != 0:
        return [f"exit code {result.returncode}"]
    lines = result.stdout.strip().splitlines()
    report = json.loads(lines[-1])
    errors = []
    if set(report) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys {sorted(report)}")
    if report.get("correct") is not True or report.get("failed") != 0:
        errors.append(f"output checks failed: {report.get('failed')} of "
                      f"{report.get('attempted')}")
    if not isinstance(report.get("attempted"), int) or report["attempted"] < 1:
        errors.append("attempted must be a whole number >= 1")
    declared = spec["per_layer" if trace else "end_to_end"]
    expected = {metric["name"]: metric["unit"] for metric in declared}
    metrics = report.get("metrics", {})
    if set(metrics) != set(expected):
        errors.append(f"metric names differ: missing "
                      f"{sorted(set(expected) - set(metrics))}, extra "
                      f"{sorted(set(metrics) - set(expected))}")
    for name, unit in expected.items():
        metric = metrics.get(name)
        if metric is None:
            continue
        if metric.get("unit") != unit:
            errors.append(f"{name}: unit {metric.get('unit')} != {unit}")
        value = metric.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append(f"{name}: value {value!r} is not a finite number")
        elif not trace and value <= 0:
            errors.append(f"{name}: end-to-end value {value} is not > 0")
    if not any(line.startswith('{"host"') for line in lines):
        errors.append("no host facts line")
    return errors


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            errors = check_run(spec, workload, trace)
            status = "ok" if not errors else "FAIL: " + "; ".join(errors)
            print(f"{workload} trace={trace}: {status}")
            failures += bool(errors)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
