#!/usr/bin/env python3
"""Negative-path tests for the repo's python tooling.

The C++ gate (the analyzer self-test) pins behavior on *code*; this file
pins the tooling's behavior on *bad inputs*: every script must reject
malformed, empty or truncated files with a clean one-line diagnostic and a
non-zero exit — never a python stack trace (a traceback in CI reads as a
tooling crash, not as the input's fault).

Covered:
  bench_summary.py   malformed / empty / non-object google-benchmark JSON,
                     entries missing real_time or context.num_cpus; an
                     unknown flag (--metrics) is a usage error; v5 output
                     (host facts, per-row median counters, no derived
                     sections) passes bench_compare against the baseline
  trace_validate.py  truncated JSON, wrong top-level shape, event missing ts
  bench_compare.py   missing baseline tolerated; regression detection and
                     non-fatal exit; corrupt baseline tolerated; one-sided
                     counters skipped with a ::notice, never compared;
                     --fail-on hard gate trips (exit 3, ::error) on
                     allowlisted families only and passes clean runs
  zerodb_analyzer.py a non-UTF-8 file is an `io` finding (exit 1); a
                     missing path exits 2; a per-file (stdout-io) and a
                     whole-program (nondet-call) finding under src/ land in
                     one text report; `::error` annotations appear only
                     under GITHUB_ACTIONS=true, one escaped line per
                     finding; the tree walk filters roots and extensions
  analysis/suppress  `zerodb-lint: allow(...)` parsing unit tests (shared
                     by the per-file and the whole-program rules)

Scripts run with GITHUB_ACTIONS removed from their environment unless a
test sets it, so results are the same locally and in CI.

Run: scripts/tooling_test.py   (exit 0 pass, 1 fail). Wired into lint.sh
and so into the CI lint job.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__))))

import zerodb_analyzer  # noqa: E402
from analysis import ir, suppress  # noqa: E402

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPTS = os.path.join(REPO_ROOT, "scripts")

_failures = []
_checks = 0


def run_script(script, *argv, github_actions=False, scripts=SCRIPTS):
    """Runs scripts/<script>; GITHUB_ACTIONS=true only when asked for."""
    env = {k: v for k, v in os.environ.items() if k != "GITHUB_ACTIONS"}
    if github_actions:
        env["GITHUB_ACTIONS"] = "true"
    return subprocess.run(
        [sys.executable, os.path.join(scripts, script), *argv],
        capture_output=True, text=True, check=False, env=env)


def check(label, condition, detail=""):
    global _checks
    _checks += 1
    if condition:
        print(f"ok   {label}")
    else:
        _failures.append(label)
        print(f"FAIL {label}{': ' + detail if detail else ''}")


def expect_clean_failure(label, result, want_exit=1):
    """Non-zero exit, a diagnostic on stderr/stdout, and no traceback."""
    output = result.stdout + result.stderr
    check(f"{label}: exit {want_exit}", result.returncode == want_exit,
          f"got {result.returncode}; output: {output.strip()[:200]}")
    check(f"{label}: no traceback", "Traceback" not in output,
          output.strip()[:200])
    check(f"{label}: has diagnostic", bool(output.strip()))


def write(tmp, name, text):
    path = os.path.join(tmp, name)
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)
    return path


def micro_json(tmp, name="micro.json", real_time=1000.0):
    return write(tmp, name, json.dumps({
        "context": {"num_cpus": 2},
        "benchmarks": [{"name": "BM_X", "real_time": real_time,
                        "cpu_time": real_time, "iterations": 3,
                        "time_unit": "us"}]}))


def test_bench_summary(tmp):
    out = os.path.join(tmp, "out.json")

    not_json = write(tmp, "garbage.json", "{not json at all")
    expect_clean_failure(
        "bench_summary malformed JSON",
        run_script("bench_summary.py", "--micro", not_json, "--out", out))

    empty = write(tmp, "empty.json", "")
    expect_clean_failure(
        "bench_summary empty file",
        run_script("bench_summary.py", "--micro", empty, "--out", out))

    top_level_list = write(tmp, "list.json", "[1, 2, 3]")
    expect_clean_failure(
        "bench_summary non-object top level",
        run_script("bench_summary.py", "--micro", top_level_list,
                   "--out", out))

    no_entries = write(tmp, "noentries.json", '{"benchmarks": []}')
    expect_clean_failure(
        "bench_summary empty benchmarks",
        run_script("bench_summary.py", "--micro", no_entries, "--out", out))

    missing_time = write(tmp, "missingtime.json", json.dumps(
        {"benchmarks": [{"name": "BM_X", "cpu_time": 1.0,
                         "iterations": 1, "time_unit": "ns"}]}))
    expect_clean_failure(
        "bench_summary entry missing real_time",
        run_script("bench_summary.py", "--micro", missing_time,
                   "--out", out))

    non_dict_entry = write(tmp, "nondict.json",
                           '{"benchmarks": [null]}')
    expect_clean_failure(
        "bench_summary null entry",
        run_script("bench_summary.py", "--micro", non_dict_entry,
                   "--out", out))

    no_context = write(tmp, "nocontext.json", json.dumps(
        {"benchmarks": [{"name": "BM_X", "real_time": 1.0, "cpu_time": 1.0,
                         "iterations": 1, "time_unit": "ns"}]}))
    expect_clean_failure(
        "bench_summary missing context.num_cpus",
        run_script("bench_summary.py", "--micro", no_context, "--out", out))

    # --metrics is not a flag: a usage error (exit 2), not a traceback.
    expect_clean_failure(
        "bench_summary rejects --metrics",
        run_script("bench_summary.py", "--micro", micro_json(tmp),
                   "--metrics", "micro=metrics.json", "--out", out),
        want_exit=2)

    # Happy path: schema v5 holds host facts and measured rows only.
    result = run_script("bench_summary.py", "--micro", micro_json(tmp),
                        "--out", out)
    with open(out, encoding="utf-8") as f:
        summary = json.load(f)
    check("bench_summary happy path",
          result.returncode == 0
          and summary["schema_version"] == 5
          and summary["benchmarks"][0]["name"] == "BM_X"
          and summary["benchmarks"][0]["counters"] == {},
          (result.stdout + result.stderr).strip()[:300])
    host = summary["host"]
    check("bench_summary host facts present and typed",
          set(host) == {"nproc", "cpu_model"}
          and host["nproc"] == 2
          and (host["cpu_model"] is None
               or isinstance(host["cpu_model"], str)), repr(host))
    removed = {"speedups", "forward_batch", "train", "cache", "pool",
               "quality"}
    check("bench_summary writes no derived sections",
          not removed & set(summary), repr(sorted(summary)))

    # User counters ride on their row, median-aggregated across repeats;
    # aggregate rows and google-benchmark's own fields are not counters.
    def train_row(plans_per_sec, **extra):
        return {"name": "BM_TrainEpoch/threads:1", "run_type": "iteration",
                "real_time": 40.0, "cpu_time": 40.0, "iterations": 5,
                "time_unit": "ms", "threads": 1, "repetitions": 3,
                "error_occurred": False, "plans_per_sec": plans_per_sec,
                **extra}
    repeated = write(tmp, "repeated.json", json.dumps({
        "context": {"num_cpus": 4},
        "benchmarks": [
            train_row(10.0, nodes_per_batch=25.0),
            train_row(30.0, nodes_per_batch=27.0),
            train_row(20.0),
            {**train_row(999.0), "run_type": "aggregate",
             "aggregate_name": "mean"}]}))
    result = run_script("bench_summary.py", "--micro", repeated,
                        "--out", out)
    with open(out, encoding="utf-8") as f:
        summary = json.load(f)
    check("bench_summary carries median counters per row",
          result.returncode == 0
          and summary["benchmarks"][0]["counters"]
          == {"nodes_per_batch": 26.0, "plans_per_sec": 20.0},
          (result.stdout + result.stderr).strip()[:300])

    # The committed baseline is a v5 file bench_compare gates against: a
    # fresh summary holding the same rows passes CI's hard gate.
    with open(os.path.join(REPO_ROOT, "BENCH_micro.json"),
              encoding="utf-8") as f:
        baseline = json.load(f)
    same_rows = write(tmp, "same_rows.json", json.dumps({
        "context": {"num_cpus": 1},
        "benchmarks": [
            {"name": row["name"], "real_time": row["real_time_ms"],
             "cpu_time": row["cpu_time_ms"],
             "iterations": row["iterations"], "time_unit": "ms",
             **row["counters"]}
            for row in baseline["benchmarks"]]}))
    walls = [f"--wall={name}={seconds!r}"
             for name, seconds in baseline["wall_clock_s"].items()]
    run_script("bench_summary.py", "--micro", same_rows, *walls,
               "--out", out)
    result = run_script(
        "bench_compare.py", "--fresh", out,
        "--baseline", os.path.join(REPO_ROOT, "BENCH_micro.json"),
        "--fail-on", "0.35", "--allowlist",
        "BM_ForwardBatch,BM_PredictCacheLookup,BM_MatMul,"
        "BM_ZeroShotFeaturization,BM_ZeroShotInferenceSingle,"
        "BM_ZeroShotInferenceBatch,BM_TrainEpoch,BM_BackwardFused,"
        "BM_HashJoinExecution,BM_PlannerLatency,BM_E2EFeaturization")
    check("bench_compare accepts a v5 summary against the baseline",
          baseline["schema_version"] == 5
          and result.returncode == 0
          and "0 gated regression(s)" in result.stdout
          and "0 one-sided" in result.stdout,
          (result.stdout + result.stderr).strip()[:300])


def test_trace_validate(tmp):
    truncated = write(tmp, "truncated.json",
                      '{"traceEvents": [{"name": "a", "ph": "X"')
    expect_clean_failure(
        "trace_validate truncated trace",
        run_script("trace_validate.py", truncated))

    wrong_shape = write(tmp, "shape.json", '["not", "an", "object"]')
    expect_clean_failure(
        "trace_validate wrong top-level shape",
        run_script("trace_validate.py", wrong_shape))

    missing_ts = write(tmp, "missing_ts.json", json.dumps({
        "traceEvents": [{"name": "span", "ph": "X", "pid": 1, "tid": 1,
                         "dur": 5.0}]}))
    expect_clean_failure(
        "trace_validate event missing ts",
        run_script("trace_validate.py", missing_ts))

    valid = write(tmp, "valid.json", json.dumps({
        "traceEvents": [
            {"name": "thread_name", "ph": "M", "pid": 1, "tid": 1,
             "args": {"name": "main"}},
            {"name": "span", "ph": "X", "pid": 1, "tid": 1, "ts": 0.0,
             "dur": 5.0},
        ]}))
    result = run_script("trace_validate.py", valid,
                        "--require-track", "main")
    check("trace_validate happy path", result.returncode == 0,
          (result.stdout + result.stderr).strip()[:200])


def test_bench_compare(tmp):
    def summary(name, real_time_ms, wall_s):
        return write(tmp, name, json.dumps({
            "schema_version": 2, "commit": name,
            "benchmarks": [{"name": "BM_X", "real_time_ms": real_time_ms,
                            "cpu_time_ms": real_time_ms, "iterations": 1}],
            "wall_clock_s": {"bench_micro": wall_s}}))

    fresh = summary("fresh.json", 200.0, 20.0)
    base = summary("base.json", 100.0, 10.0)

    result = run_script("bench_compare.py", "--fresh", fresh,
                        "--baseline", os.path.join(tmp, "nope.json"))
    check("bench_compare missing baseline tolerated",
          result.returncode == 0 and "nothing to compare" in result.stdout,
          (result.stdout + result.stderr).strip()[:200])

    result = run_script("bench_compare.py", "--fresh", fresh,
                        "--baseline", base, github_actions=True)
    check("bench_compare flags regression non-fatally",
          result.returncode == 0
          and result.stdout.count("REGRESSION") == 2
          and "::warning" in result.stdout,
          (result.stdout + result.stderr).strip()[:300])

    result = run_script("bench_compare.py", "--fresh", base,
                        "--baseline", base)
    check("bench_compare identical summaries: no regressions",
          result.returncode == 0 and "0 regression(s)" in result.stdout
          and "0 one-sided" in result.stdout)

    renamed = write(tmp, "renamed.json", json.dumps({
        "schema_version": 2, "commit": "renamed",
        "benchmarks": [{"name": "BM_New", "real_time_ms": 5.0,
                        "cpu_time_ms": 5.0, "iterations": 1}],
        "wall_clock_s": {"bench_micro": 10.0}}))
    result = run_script("bench_compare.py", "--fresh", renamed,
                        "--baseline", base, github_actions=True)
    check("bench_compare one-sided counters skipped with ::notice",
          result.returncode == 0
          and result.stdout.count("::notice") == 2
          and "BM_New" in result.stdout and "BM_X" in result.stdout
          and "2 one-sided series skipped" in result.stdout,
          (result.stdout + result.stderr).strip()[:300])

    expect_clean_failure(
        "bench_compare missing fresh summary",
        run_script("bench_compare.py", "--fresh",
                   os.path.join(tmp, "absent.json"), "--baseline", base))

    corrupt = write(tmp, "corrupt.json", "{broken")
    result = run_script("bench_compare.py", "--fresh", fresh,
                        "--baseline", corrupt)
    check("bench_compare corrupt baseline tolerated",
          result.returncode == 0
          and "Traceback" not in result.stdout + result.stderr,
          (result.stdout + result.stderr).strip()[:200])

    # The hard gate: an allowlisted series past --fail-on fails the run
    # with exit 3 and an ::error annotation. fresh's BM_X is +100% over
    # base; the wall clock series is not allowlisted so it stays a warning.
    result = run_script("bench_compare.py", "--fresh", fresh,
                        "--baseline", base, "--fail-on", "0.35",
                        "--allowlist", "BM_X", github_actions=True)
    check("bench_compare gate trips on allowlisted regression",
          result.returncode == 3
          and "GATED REGRESSION" in result.stdout
          and "::error" in result.stdout
          and "1 gated regression(s)" in result.stdout,
          (result.stdout + result.stderr).strip()[:300])

    result = run_script("bench_compare.py", "--fresh", fresh,
                        "--baseline", base, "--fail-on", "0.35",
                        "--allowlist", "BM_Other", github_actions=True)
    check("bench_compare gate ignores non-allowlisted series",
          result.returncode == 0
          and "GATED" not in result.stdout
          and "::error" not in result.stdout
          and "::warning" in result.stdout,
          (result.stdout + result.stderr).strip()[:300])

    result = run_script("bench_compare.py", "--fresh", base,
                        "--baseline", base, "--fail-on", "0.35",
                        "--allowlist", "BM_X")
    check("bench_compare gate passes when allowlisted series hold",
          result.returncode == 0 and "0 gated" in result.stdout,
          (result.stdout + result.stderr).strip()[:200])

    # Allowlist entries name families: `BM_Fwd` must cover the argumented
    # instance `BM_Fwd/batch:32` by substring.
    def family(name, ms):
        return write(tmp, name, json.dumps({
            "schema_version": 3, "commit": name,
            "benchmarks": [{"name": "BM_Fwd/batch:32", "real_time_ms": ms,
                            "cpu_time_ms": ms, "iterations": 1}],
            "wall_clock_s": {}}))
    result = run_script("bench_compare.py",
                        "--fresh", family("fam_fresh.json", 300.0),
                        "--baseline", family("fam_base.json", 100.0),
                        "--fail-on", "0.35", "--allowlist", "BM_Fwd,BM_Y")
    check("bench_compare gate matches benchmark families by substring",
          result.returncode == 3 and "BM_Fwd/batch:32" in result.stdout,
          (result.stdout + result.stderr).strip()[:300])

    expect_clean_failure(
        "bench_compare --allowlist without --fail-on is a usage error",
        run_script("bench_compare.py", "--fresh", fresh, "--baseline", base,
                   "--allowlist", "BM_X"),
        want_exit=2)


def test_analyzer(tmp):
    undecodable = os.path.join(tmp, "undecodable.cc")
    with open(undecodable, "wb") as f:
        f.write(b"int x;\n// \xff\xfe\n")
    result = run_script("zerodb_analyzer.py", undecodable)
    expect_clean_failure("analyzer non-UTF-8 file", result)
    check("analyzer non-UTF-8 file: io finding",
          "[io] unreadable" in result.stdout, result.stdout.strip()[:200])

    expect_clean_failure(
        "analyzer nonexistent path",
        run_script("zerodb_analyzer.py", os.path.join(tmp, "absent.cc")),
        want_exit=2)

    # A scratch repo (the analyzer resolves its root from its own path)
    # with one per-file and one whole-program violation under src/.
    repo = os.path.join(tmp, "analyzer_repo")
    shutil.copytree(SCRIPTS, os.path.join(repo, "scripts"),
                    ignore=shutil.ignore_patterns("__pycache__",
                                                  "lint_fixtures"))
    os.makedirs(os.path.join(repo, "src", "plan"))
    write(repo, "src/plan/bad.cc",
          "#include <cstdlib>\n#include <iostream>\n"
          "int Draw() { return rand(); }\n"
          "void Show(int v) { std::cout << v; }\n")
    def annotations(result):
        return [line for line in result.stdout.splitlines()
                if line.startswith("::")]

    result = run_script("zerodb_analyzer.py",
                        scripts=os.path.join(repo, "scripts"))
    check("analyzer: both rule families share one text report",
          result.returncode == 1
          and "src/plan/bad.cc:4: [stdout-io]" in result.stdout
          and "src/plan/bad.cc:3: [nondet-call]" in result.stdout
          and not annotations(result),
          f"exit {result.returncode}: {result.stdout.strip()[:300]}")

    result = run_script("zerodb_analyzer.py", github_actions=True,
                        scripts=os.path.join(repo, "scripts"))
    prefixes = [line.split("::", 2)[1] for line in annotations(result)]
    check("analyzer: GITHUB_ACTIONS=true adds one ::error per finding",
          result.returncode == 1 and prefixes == [
              "error file=src/plan/bad.cc,line=3,"
              "title=zerodb-analyzer%3A nondet-call",
              "error file=src/plan/bad.cc,line=4,"
              "title=zerodb-analyzer%3A stdout-io"],
          result.stdout.strip()[:300])
    annotation = zerodb_analyzer.github_annotation(
        ir.Finding("src/a,b.cc", 1, "unit-mix", "100% off\nline2"))
    check("analyzer: ::error escapes properties and message",
          annotation == "::error file=src/a%2Cb.cc,line=1,"
          "title=zerodb-analyzer%3A unit-mix::100%25 off%0Aline2",
          annotation)

    tree_repo = os.path.join(tmp, "tree_repo")
    for rel in ("src/b/y.cc", "src/a/x.h", "src/a/notes.txt", "tests/t.cc",
                "docs/d.cc"):
        os.makedirs(os.path.dirname(os.path.join(tree_repo, rel)),
                    exist_ok=True)
        write(tree_repo, rel, "// " + rel + "\n")
    tree = [os.path.relpath(p, tree_repo)
            for p in zerodb_analyzer.tree_files(
                tree_repo, ("src", "tests"), (".h", ".cc"))]
    check("analyzer: tree walk filters roots/extensions in sorted order",
          tree == ["src/a/x.h", "src/b/y.cc", "tests/t.cc"], str(tree))


def test_suppress():
    check("suppress: plain line has no rules",
          suppress.allowed_rules("int x = 1;") == frozenset())
    check("suppress: single rule",
          suppress.allowed_rules("x;  // zerodb-lint: allow(hot-alloc)")
          == frozenset({"hot-alloc"}))
    check("suppress: comma list with spaces",
          suppress.allowed_rules(
              "// zerodb-lint: allow(unit-mix , statusor-deref)")
          == frozenset({"unit-mix", "statusor-deref"}))
    check("suppress: malformed marker suppresses nothing",
          suppress.allowed_rules("// zerodb-lint: allow()") == frozenset()
          and suppress.allowed_rules("// zerodb-lint: allow(Bad_Rule)")
          == frozenset())
    lines = ["int a;",
             "// zerodb-lint: allow(unit-mix)",
             "Millis m = Millis(rows);",
             "rows2ms(r);  // zerodb-lint: allow(unit-mix)"]
    check("suppress: line above applies",
          suppress.suppressed(lines, 2, "unit-mix"))
    check("suppress: same line applies",
          suppress.suppressed(lines, 3, "unit-mix"))
    check("suppress: other rule untouched",
          not suppress.suppressed(lines, 2, "hot-alloc"))
    check("suppress: unmarked line untouched",
          not suppress.suppressed(lines, 0, "unit-mix"))
    check("suppress: out-of-range index is safe",
          not suppress.suppressed(lines, 0, "unit-mix")
          and not suppress.suppressed([], 0, "unit-mix"))


def main():
    with tempfile.TemporaryDirectory(prefix="zerodb-tooling-") as tmp:
        test_bench_summary(tmp)
        test_trace_validate(tmp)
        test_bench_compare(tmp)
        test_analyzer(tmp)
        test_suppress()
    if _failures:
        print(f"tooling_test: FAIL ({len(_failures)}/{_checks} checks): "
              + ", ".join(_failures))
        return 1
    print(f"tooling_test: PASS ({_checks} checks)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
