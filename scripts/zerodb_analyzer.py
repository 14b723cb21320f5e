#!/usr/bin/env python3
"""zerodb-analyzer: whole-program static analysis for the zerodb tree.

Four checks over a frontend-neutral micro-IR (see scripts/analysis/):
determinism audit (nondet-call / nondet-iter), cross-TU lock-order cycles
(lock-order, with a lock_order.dot artifact), lifetime (lifetime-return /
lifetime-member) and module-DAG layering, plus the interprocedural dataflow
rules (unit-mix / statusor-deref / hot-alloc). Discarded Status results are
left to the compiler: Status and StatusOr are class-level [[nodiscard]]
under -Werror, and zerodb-lint requires a reason on every (void) cast.

Frontends:
  libclang   real ASTs from compile_commands.json (python3-clang + a
             loadable libclang.so; the CI `analyze` job provides both)
  text       pure-python lexical frontend, always available

`--frontend auto` (default) prefers libclang and degrades to the textual
frontend with a warning; `--frontend libclang` prints SKIPPED and exits 0
when libclang is unavailable, so the gate never hard-fails on a missing
toolchain. The self-test always runs the textual frontend so fixture
behavior is pinned and reproducible in any container.

Exit codes: 0 clean (or SKIPPED), 1 findings / self-test failure, 2 usage.
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from analysis import checks, ir, textparse  # noqa: E402
from analysis import callgraph, clangparse, dataflow  # noqa: E402
from analysis import files as source_files  # noqa: E402
from analysis import sarif as sarif_out  # noqa: E402

REPO_ROOT = os.path.realpath(
    os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir))
FIXTURE_DIR = os.path.join(REPO_ROOT, "scripts", "lint_fixtures", "analyzer")
SCAN_ROOT = "src"
EXTENSIONS = (".h", ".cc")


def _rel(path):
    return os.path.relpath(os.path.realpath(path), REPO_ROOT).replace(
        os.sep, "/")


def _parse_text(paths):
    files = {}
    for path in paths:
        rel = _rel(path)
        files[rel] = textparse.parse_file(path, rel)
    return files


def _parse(paths, frontend, compdb):
    """Returns ({rel: FileIR}, frontend_used) or raises
    clangparse.FrontendUnavailable when frontend == 'libclang' only."""
    if frontend == "text":
        return _parse_text(paths), "text"
    limit = None
    if paths is not None:
        limit = {_rel(p) for p in paths}
    try:
        files = clangparse.parse_compdb(compdb, REPO_ROOT,
                                        limit_files=limit)
    except clangparse.FrontendUnavailable:
        if frontend == "libclang":
            raise
        return _parse_text(paths), "text"
    # Headers no TU reaches (or files outside the compdb) still get the
    # textual frontend, so coverage matches the tree scan.
    for path in paths:
        rel = _rel(path)
        if rel not in files:
            files[rel] = textparse.parse_file(path, rel)
    return files, "libclang"


def _relevant_rels(files, changed_rels):
    """Changed files plus every file holding a function the call graph
    connects to a changed file's functions in either direction — the set
    whose cross-TU findings a change can influence."""
    graph = callgraph.build(files)
    seeds = [f.name for f in graph.functions if f.rel in changed_rels]
    reachable = graph.reachable_names(seeds, undirected=True)
    relevant = set(changed_rels)
    relevant.update(f.rel for f in graph.functions
                    if f.name in reachable)
    return relevant


def _write_dot(dot_path, edges, cyclic):
    os.makedirs(os.path.dirname(os.path.abspath(dot_path)), exist_ok=True)
    with open(dot_path, "w", encoding="utf-8") as f:
        f.write(checks.lock_graph_dot(edges, cyclic))


def _self_test_libclang(names):
    """Second self-test leg: the interprocedural dataflow rules under the
    libclang frontend. Dataflow lowers from FileIR.raw_lines, which both
    frontends populate identically, so these findings must match the text
    frontend exactly; where libclang is absent the leg prints SKIPPED and
    the gate stays green (mirrors the tree-wide `--frontend libclang`
    degradation contract)."""
    import json
    import tempfile

    try:
        clangparse.load()
    except clangparse.FrontendUnavailable as error:
        print(f"self-test[libclang]: SKIPPED ({error})")
        return 0

    dataflow_rules = set(dataflow.RULES)
    sources = [os.path.join(FIXTURE_DIR, n) for n in names
               if n.endswith(".cc")]
    with tempfile.TemporaryDirectory() as tmp:
        compdb_path = os.path.join(tmp, "compile_commands.json")
        with open(compdb_path, "w", encoding="utf-8") as f:
            json.dump([{"directory": FIXTURE_DIR,
                        "file": src,
                        "arguments": ["clang++", "-std=c++17",
                                      "-fsyntax-only", src]}
                       for src in sources], f)
        try:
            files = clangparse.parse_compdb(compdb_path, REPO_ROOT)
        except clangparse.FrontendUnavailable as error:
            print(f"self-test[libclang]: SKIPPED ({error})")
            return 0

    failures = 0
    for src in sources:
        name = os.path.basename(src)
        rel = _rel(src)
        fir = files.get(rel)
        if fir is None:
            failures += 1
            print(f"FAIL [libclang] {name}: fixture missing from parse")
            continue
        findings = dataflow.run({rel: fir})
        found = {(f.line, f.rule) for f in findings}
        expected = {(line, rule) for line, rule
                    in fir.expected_findings() if rule in dataflow_rules}
        problems = []
        for line, rule in sorted(expected - found):
            problems.append(f"missed expected: line {line} [{rule}]")
        for line, rule in sorted(found - expected):
            problems.append(f"spurious finding: line {line} [{rule}]")
        if problems:
            failures += 1
            print(f"FAIL [libclang] {name}")
            for p in problems:
                print(f"  {p}")
        else:
            print(f"ok   [libclang] {name} ({len(expected)} expected)")
    return failures


def self_test():
    if not os.path.isdir(FIXTURE_DIR):
        print(f"zerodb-analyzer: FAIL: missing fixture dir {FIXTURE_DIR}")
        return 1
    names = sorted(n for n in os.listdir(FIXTURE_DIR)
                   if n.endswith((".cc", ".h")))
    if not names:
        print("zerodb-analyzer: FAIL: no fixtures found")
        return 1
    rules_covered = set()
    failures = 0
    for name in names:
        path = os.path.join(FIXTURE_DIR, name)
        rel = _rel(path)
        fir = textparse.parse_file(path, rel)
        findings, _, _ = checks.run_all({rel: fir})
        found = {(f.line, f.rule) for f in findings}
        expected = fir.expected_findings()
        problems = []
        if name.startswith("good_"):
            if expected:
                problems.append("good_ fixture must not carry "
                                "expect-analyzer markers")
            for f in sorted(found):
                problems.append(f"unexpected finding: line {f[0]} [{f[1]}]")
        else:
            if not expected:
                problems.append("bad_ fixture has no expect-analyzer "
                                "markers")
            for line, rule in sorted(expected - found):
                problems.append(f"missed expected: line {line} [{rule}]")
            for line, rule in sorted(found - expected):
                problems.append(f"spurious finding: line {line} [{rule}]")
            rules_covered |= {rule for _, rule in expected}
        if problems:
            failures += 1
            print(f"FAIL {name}")
            for p in problems:
                print(f"  {p}")
        else:
            print(f"ok   {name} "
                  f"({len(expected) if expected else 0} expected)")
    missing_rules = set(checks.ALL_RULES) - rules_covered
    if missing_rules:
        failures += 1
        print("FAIL coverage: no bad_ fixture exercises: "
              + ", ".join(sorted(missing_rules)))
    failures += _self_test_libclang(names)
    if failures:
        print(f"zerodb-analyzer self-test: FAIL ({failures} problem(s))")
        return 1
    print(f"zerodb-analyzer self-test: PASS ({len(names)} fixtures, "
          f"all {len(checks.ALL_RULES)} rules covered)")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="zerodb_analyzer.py",
        description="whole-program static analysis (determinism, "
                    "lock-order, lifetime, layering, dataflow)")
    parser.add_argument("files", nargs="*",
                        help="analyze only these files (default: src/ tree)")
    parser.add_argument("-p", "--compdb",
                        default=os.path.join(REPO_ROOT, "build",
                                             "compile_commands.json"),
                        help="compile_commands.json for the libclang "
                             "frontend (default: build/)")
    parser.add_argument("--frontend", choices=("auto", "libclang", "text"),
                        default="auto")
    parser.add_argument("--self-test", action="store_true",
                        help="run the fixture suite (textual frontend)")
    parser.add_argument("--dot", metavar="PATH",
                        help="write the lock-order graph as graphviz DOT "
                             "(default: build/lock_order.dot when build/ "
                             "exists)")
    parser.add_argument("--sarif", metavar="PATH",
                        help="write findings as a SARIF 2.1.0 log (CI "
                             "uploads this as the analyze artifact)")
    parser.add_argument("--github", action="store_true",
                        help="emit one ::error workflow command per "
                             "finding so CI annotates offending lines")
    parser.add_argument("--changed-only", action="store_true",
                        help="fast path: report only findings in files "
                             "changed vs --base or in functions the "
                             "call graph connects (either direction) to "
                             "a changed file; the whole tree is still "
                             "parsed so cross-TU checks stay sound")
    parser.add_argument("--base", default="HEAD",
                        help="git ref --changed-only diffs against "
                             "(default: HEAD)")
    parser.add_argument("-q", "--quiet", action="store_true",
                        help="suppress the per-finding listing")
    args = parser.parse_args(argv)

    if args.self_test:
        return self_test()
    if args.changed_only and args.files:
        parser.error("--changed-only takes no file arguments")

    changed_rels = None
    if args.changed_only:
        changed_rels = {_rel(path) for path in source_files.changed_files(
            REPO_ROOT, (SCAN_ROOT,), EXTENSIONS, args.base,
            "zerodb-analyzer")}
        if not changed_rels:
            print("zerodb-analyzer: no changed analyzable files")
            if args.sarif:
                sarif_out.write_sarif(args.sarif, [],
                                      rules=checks.ALL_RULES)
            return 0

    if args.files:
        paths = []
        for f in args.files:
            if not os.path.isfile(f):
                print(f"zerodb-analyzer: no such file: {f}",
                      file=sys.stderr)
                return 2
            paths.append(os.path.abspath(f))
    else:
        paths = source_files.tree_files(REPO_ROOT, (SCAN_ROOT,), EXTENSIONS)
        if not paths:
            print(f"zerodb-analyzer: nothing under {SCAN_ROOT}/",
                  file=sys.stderr)
            return 2

    try:
        files, used = _parse(paths, args.frontend, args.compdb)
    except clangparse.FrontendUnavailable as error:
        print(f"zerodb-analyzer: SKIPPED (libclang frontend requested but "
              f"unavailable: {error})")
        if args.sarif:
            # Keep the CI artifact contract: an empty-but-valid log.
            sarif_out.write_sarif(args.sarif, [], rules=checks.ALL_RULES)
        return 0
    if args.frontend == "auto" and used == "text":
        print("zerodb-analyzer: note: libclang unavailable, using the "
              "textual frontend", file=sys.stderr)

    findings, edges, cyclic = checks.run_all(files)

    scanned = len(files)
    if changed_rels is not None:
        relevant = _relevant_rels(files, changed_rels)
        findings = [f for f in findings if f.rel in relevant]

    dot_path = args.dot
    if dot_path is None and not args.files and \
            os.path.isdir(os.path.join(REPO_ROOT, "build")):
        dot_path = os.path.join(REPO_ROOT, "build", "lock_order.dot")
    if dot_path:
        _write_dot(dot_path, edges, cyclic)

    if args.sarif:
        sarif_out.write_sarif(args.sarif, findings,
                              rules=checks.ALL_RULES)
    if args.github:
        for line in sarif_out.github_annotations(findings):
            print(line)

    if not args.quiet:
        for finding in findings:
            print(finding)
    locks_note = (f"{len(edges)} lock-order edge(s), "
                  f"{len(cyclic)} in cycles")
    scope_note = ""
    if changed_rels is not None:
        scope_note = (f" (changed-only vs {args.base}: "
                      f"{len(changed_rels)} changed file(s))")
    print(f"zerodb-analyzer: {len(findings)} finding(s) across "
          f"{scanned} file(s) [frontend: {used}; {locks_note}]"
          + scope_note
          + (f"; wrote {os.path.relpath(dot_path, os.getcwd())}"
             if dot_path else "")
          + (f"; wrote {os.path.relpath(args.sarif, os.getcwd())}"
             if args.sarif else ""))
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
