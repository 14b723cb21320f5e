#!/usr/bin/env python3
"""Compare a freshly generated bench summary against the committed baseline.

  scripts/bench_compare.py --fresh BENCH_fresh.json \
      --baseline BENCH_micro.json [--threshold 0.25]

Reports per-benchmark real_time_ms and wall_clock_s movements between the
two summaries (schema v5, or any older schema with the same benchmark rows;
see bench_summary.py). Regressions beyond the threshold are printed — and,
under GitHub Actions (GITHUB_ACTIONS=true), also emitted as `::warning::`
workflow annotations so they show up on the PR — but the exit code stays 0.
Counters present in only one summary (a new or retired benchmark) are
skipped with a note (plus a `::notice` under GitHub Actions) rather than
silently dropped. Exit 0 despite regressions because micro-benchmarks on
shared CI runners are too noisy to gate merges on — the annotation is the
signal.

--fail-on RATIO turns the soft report into a hard gate for the series
named by --allowlist (comma-separated, repeatable; each entry matches a
benchmark family by substring, so `BM_ForwardBatch` covers every
`BM_ForwardBatch/batch:N`). An allowlisted series that slows down by more
than RATIO fails the run: exit code 3, plus `::error` annotations under
GitHub Actions. Series outside the allowlist keep the warning-only behavior
— the allowlist names the counters judged stable enough to gate merges on.
--fail-on without --allowlist gates every series. Exit 1 is reserved for
unusable input (missing/invalid fresh summary), 2 for usage errors, 3 for a
tripped gate.

A missing baseline is not an error (first run on a fresh branch): the
script prints a note and exits 0.
"""

import argparse
import json
import os
import sys


def load_summary(path, *, required):
    if not os.path.isfile(path):
        if required:
            print(f"bench_compare: missing summary: {path}", file=sys.stderr)
            sys.exit(1)
        return None
    try:
        with open(path, "r", encoding="utf-8") as f:
            data = json.load(f)
    except (OSError, json.JSONDecodeError) as error:
        if required:
            print(f"bench_compare: cannot read {path}: {error}",
                  file=sys.stderr)
            sys.exit(1)
        print(f"bench_compare: ignoring unreadable baseline {path}: {error}")
        return None
    if not isinstance(data, dict):
        if required:
            print(f"bench_compare: {path} is not a JSON object",
                  file=sys.stderr)
            sys.exit(1)
        return None
    return data


def benchmark_times(summary):
    """{name: real_time_ms} from a summary's rows; tolerant of malformed
    entries (they are skipped, not fatal — the baseline may predate
    validation)."""
    out = {}
    entries = summary.get("benchmarks")
    if not isinstance(entries, list):
        return out
    for entry in entries:
        if not isinstance(entry, dict):
            continue
        name = entry.get("name")
        value = entry.get("real_time_ms")
        if isinstance(name, str) and isinstance(value, (int, float)) \
                and value > 0:
            out[name] = float(value)
    return out


def wall_clocks(summary):
    out = {}
    walls = summary.get("wall_clock_s")
    if not isinstance(walls, dict):
        return out
    for name, value in walls.items():
        if isinstance(name, str) and isinstance(value, (int, float)) \
                and value > 0:
            out[name] = float(value)
    return out


def allowlisted(name, allowlist):
    """True when `name` belongs to a gated benchmark family. Substring
    match: an allowlist entry names a family (`BM_ForwardBatch`) and covers
    every argumented instance (`BM_ForwardBatch/batch:32`)."""
    return any(entry in name for entry in allowlist)


def compare(fresh, baseline, threshold, fail_on=None, allowlist=()):
    """Returns (gated, regressions, improvements, common_count, one_sided).
    gated/regression/improvement entries are (kind, name, baseline_value,
    fresh_value, ratio-1); one_sided entries are (kind, name, side) for
    counters present in only one summary (new or retired benchmarks —
    skipped, not compared). A slowdown lands in `gated` when --fail-on is
    active, it exceeds fail_on, and the series is allowlisted (an empty
    allowlist gates everything); otherwise slowdowns beyond `threshold`
    land in `regressions`."""
    gated, regressions, improvements, one_sided = [], [], [], []
    common = 0
    for kind, extract in (("bench", benchmark_times), ("wall", wall_clocks)):
        fresh_map = extract(fresh)
        base_map = extract(baseline)
        for name in sorted(fresh_map.keys() ^ base_map.keys()):
            side = "fresh" if name in fresh_map else "baseline"
            one_sided.append((kind, name, side))
        for name in sorted(fresh_map.keys() & base_map.keys()):
            common += 1
            before, after = base_map[name], fresh_map[name]
            delta = after / before - 1.0
            gate_applies = fail_on is not None and (
                not allowlist or allowlisted(name, allowlist))
            if gate_applies and delta > fail_on:
                gated.append((kind, name, before, after, delta))
            elif delta > threshold:
                regressions.append((kind, name, before, after, delta))
            elif delta < -threshold:
                improvements.append((kind, name, before, after, delta))
    return gated, regressions, improvements, common, one_sided


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fresh", required=True,
                        help="summary generated by this run")
    parser.add_argument("--baseline", default="BENCH_micro.json",
                        help="committed baseline summary")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="relative slowdown that counts as a "
                             "regression (default 0.25 = +25%%)")
    parser.add_argument("--fail-on", type=float, default=None,
                        help="relative slowdown beyond which allowlisted "
                             "series fail the run (exit 3); e.g. 0.35")
    parser.add_argument("--allowlist", action="append", default=[],
                        help="comma-separated benchmark families gated by "
                             "--fail-on (substring match; repeatable); "
                             "empty gates every series")
    args = parser.parse_args()
    if args.threshold <= 0:
        parser.error("--threshold must be > 0")
    if args.fail_on is not None and args.fail_on <= 0:
        parser.error("--fail-on must be > 0")
    allowlist = [entry.strip()
                 for chunk in args.allowlist
                 for entry in chunk.split(",") if entry.strip()]
    if allowlist and args.fail_on is None:
        parser.error("--allowlist requires --fail-on")

    fresh = load_summary(args.fresh, required=True)
    baseline = load_summary(args.baseline, required=False)
    if baseline is None:
        print(f"bench_compare: no baseline at {args.baseline}; nothing to "
              "compare (first run?)")
        return 0

    annotate = os.environ.get("GITHUB_ACTIONS") == "true"
    base_commit = baseline.get("commit", "?")
    gated, regressions, improvements, common, one_sided = compare(
        fresh, baseline, args.threshold, fail_on=args.fail_on,
        allowlist=allowlist)
    unit = {"bench": "ms", "wall": "s"}
    for kind, name, before, after, delta in gated:
        u = unit[kind]
        message = (f"{name}: {before:.2f}{u} -> {after:.2f}{u} "
                   f"(+{delta * 100.0:.0f}% vs baseline {base_commit}, "
                   f"gate {args.fail_on * 100.0:.0f}%)")
        print(f"bench_compare: GATED REGRESSION {message}")
        if annotate:
            print(f"::error title=bench gate::{message}")
    for kind, name, before, after, delta in regressions:
        u = unit[kind]
        message = (f"{name}: {before:.2f}{u} -> {after:.2f}{u} "
                   f"(+{delta * 100.0:.0f}% vs baseline {base_commit})")
        print(f"bench_compare: REGRESSION {message}")
        if annotate:
            # One annotation per regression; non-fatal by design (exit 0).
            print(f"::warning title=bench regression::{message}")
    for kind, name, before, after, delta in improvements:
        u = unit[kind]
        print(f"bench_compare: improvement {name}: {before:.2f}{u} -> "
              f"{after:.2f}{u} ({delta * 100.0:.0f}%)")
    for kind, name, side in one_sided:
        message = (f"{name} ({kind}) exists only in the {side} summary "
                   f"(new or retired series); skipped")
        print(f"bench_compare: skipped {message}")
        if annotate:
            print(f"::notice title=bench one-sided counter::{message}")
    print(f"bench_compare: {common} series compared, "
          f"{len(gated)} gated regression(s), "
          f"{len(regressions)} regression(s), "
          f"{len(improvements)} improvement(s) beyond "
          f"{args.threshold * 100.0:.0f}%, "
          f"{len(one_sided)} one-sided series skipped")
    return 3 if gated else 0


if __name__ == "__main__":
    sys.exit(main())
