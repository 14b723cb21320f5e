#!/usr/bin/env python3
"""Convert bench outputs into the repo-root BENCH_micro.json summary.

Inputs
  --micro <path>       google-benchmark JSON (bench_micro --benchmark_out=...)
  --wall name=seconds  whole-bench wall-clock measured by the caller
                       (repeatable)
  --out <path>         where to write the summary (default BENCH_micro.json)
  --commit <sha>       recorded verbatim (default $GITHUB_SHA, else "local")

Output schema (schema_version 5), validated before writing — an invalid
summary exits non-zero so CI fails instead of uploading garbage:

  {
    "schema_version": 5,
    "commit": str,
    "host": {"nproc": int,             # google-benchmark context.num_cpus
             "cpu_model": str | null}, # /proc/cpuinfo "model name"
    "benchmarks": [
      {"name": str, "real_time_ms": float, "cpu_time_ms": float,
       "iterations": int,
       "counters": {str: float}}     # numeric user counters
    ],                               # (median across repeated entries)
    "wall_clock_s": {str: float}
  }

The summary holds measured rows only. Ratios between rows (thread or batch
speedups) are recomputed from them; serving-path cache, pool and q-error
figures come from the end-to-end benchmark (perfbench/) per workload.
"""

import argparse
import json
import os
import statistics
import sys

SCHEMA_VERSION = 5

_TIME_UNIT_TO_MS = {"ns": 1e-6, "us": 1e-3, "ms": 1.0, "s": 1e3}

# Fields google-benchmark writes on every run entry. Any other numeric field
# is a user counter (state.counters, SetItemsProcessed, ...).
_RUN_FIELDS = frozenset({
    "name", "family_index", "per_family_instance_index", "run_name",
    "run_type", "repetitions", "repetition_index", "threads", "iterations",
    "real_time", "cpu_time", "time_unit", "aggregate_name", "aggregate_unit",
    "label", "error_occurred", "error_message",
})


def fail(message):
    print(f"bench_summary: {message}", file=sys.stderr)
    sys.exit(1)


def load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as error:
        fail(f"cannot read {path}: {error}")


def is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def summarize_micro(micro):
    """Median-aggregates google-benchmark entries (timings and user
    counters) by benchmark name."""
    if not isinstance(micro, dict):
        fail("google-benchmark JSON must be an object, got "
             f"{type(micro).__name__}")
    entries = micro.get("benchmarks")
    if not isinstance(entries, list) or not entries:
        fail("google-benchmark JSON has no 'benchmarks' entries")
    by_name = {}
    for entry in entries:
        if not isinstance(entry, dict):
            fail(f"malformed benchmark entry: {entry!r}")
        # Skip explicit aggregates (mean/median/stddev rows from
        # --benchmark_repetitions); we aggregate iterations ourselves.
        if entry.get("run_type") == "aggregate":
            continue
        name = entry.get("name")
        unit = entry.get("time_unit", "ns")
        if name is None or unit not in _TIME_UNIT_TO_MS:
            fail(f"malformed benchmark entry: {entry!r}")
        scale = _TIME_UNIT_TO_MS[unit]
        try:
            by_name.setdefault(name, []).append(
                {
                    "real_time_ms": float(entry["real_time"]) * scale,
                    "cpu_time_ms": float(entry["cpu_time"]) * scale,
                    "iterations": int(entry.get("iterations", 0)),
                    "counters": {
                        key: float(value) for key, value in entry.items()
                        if key not in _RUN_FIELDS and is_number(value)
                    },
                }
            )
        except (KeyError, TypeError, ValueError) as error:
            fail(f"malformed benchmark entry {name!r}: {error!r}")
    benchmarks = []
    for name in sorted(by_name):
        runs = by_name[name]
        counter_names = sorted({key for r in runs for key in r["counters"]})
        benchmarks.append(
            {
                "name": name,
                "real_time_ms": statistics.median(
                    r["real_time_ms"] for r in runs
                ),
                "cpu_time_ms": statistics.median(
                    r["cpu_time_ms"] for r in runs
                ),
                "iterations": max(r["iterations"] for r in runs),
                "counters": {
                    key: statistics.median(
                        r["counters"][key] for r in runs
                        if key in r["counters"]
                    )
                    for key in counter_names
                },
            }
        )
    return benchmarks


def host_facts(micro):
    """{"nproc", "cpu_model"} of the host that ran the benchmarks."""
    context = micro.get("context")
    nproc = context.get("num_cpus") if isinstance(context, dict) else None
    if not isinstance(nproc, int) or isinstance(nproc, bool) or nproc < 1:
        fail("google-benchmark JSON has no positive context.num_cpus")
    cpu_model = None
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as f:
            for line in f:
                key, _, value = line.partition(":")
                if key.strip() == "model name":
                    cpu_model = value.strip()
                    break
    except OSError:
        pass
    return {"nproc": nproc, "cpu_model": cpu_model}


def validate(summary):
    """Hand-rolled schema check (no external jsonschema dependency)."""

    def expect(condition, what):
        if not condition:
            fail(f"schema violation: {what}")

    expect(summary.get("schema_version") == SCHEMA_VERSION, "schema_version")
    expect(isinstance(summary.get("commit"), str), "commit must be a string")
    host = summary.get("host")
    expect(isinstance(host, dict), "host must be a dict")
    nproc = host.get("nproc")
    expect(isinstance(nproc, int) and nproc >= 1, "host.nproc must be an int")
    cpu_model = host.get("cpu_model")
    expect(cpu_model is None or isinstance(cpu_model, str),
           "host.cpu_model must be a string or null")
    benchmarks = summary.get("benchmarks")
    expect(
        isinstance(benchmarks, list) and benchmarks,
        "benchmarks must be a non-empty list",
    )
    for bench in benchmarks:
        expect(isinstance(bench.get("name"), str), "benchmark name")
        for key in ("real_time_ms", "cpu_time_ms"):
            value = bench.get(key)
            expect(
                is_number(value) and value >= 0,
                f"{bench.get('name')}: {key}",
            )
        expect(
            isinstance(bench.get("iterations"), int)
            and bench["iterations"] >= 0,
            f"{bench.get('name')}: iterations",
        )
        counters = bench.get("counters")
        expect(
            isinstance(counters, dict)
            and all(isinstance(k, str) and is_number(v)
                    for k, v in counters.items()),
            f"{bench.get('name')}: counters",
        )
    expect(
        isinstance(summary.get("wall_clock_s"), dict),
        "wall_clock_s must be a dict",
    )
    for name, seconds in summary["wall_clock_s"].items():
        expect(
            is_number(seconds) and seconds >= 0,
            f"wall_clock_s.{name}",
        )


def parse_pairs(pairs, value_type, flag):
    out = {}
    for pair in pairs:
        if "=" not in pair:
            fail(f"{flag} expects name=value, got {pair!r}")
        name, _, value = pair.partition("=")
        try:
            out[name] = value_type(value)
        except ValueError:
            fail(f"{flag} {name}: bad value {value!r}")
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--micro", required=True)
    parser.add_argument("--wall", action="append", default=[])
    parser.add_argument("--out", default="BENCH_micro.json")
    parser.add_argument(
        "--commit", default=os.environ.get("GITHUB_SHA", "local")
    )
    args = parser.parse_args()

    micro = load_json(args.micro)
    benchmarks = summarize_micro(micro)
    summary = {
        "schema_version": SCHEMA_VERSION,
        "commit": args.commit,
        "host": host_facts(micro),
        "benchmarks": benchmarks,
        "wall_clock_s": parse_pairs(args.wall, float, "--wall"),
    }
    validate(summary)
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(summary, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"bench_summary: wrote {args.out} ({len(benchmarks)} rows, "
          f"{summary['host']['nproc']} cpu(s))")


if __name__ == "__main__":
    main()
