#!/usr/bin/env python3
"""zerodb-analyzer: the static analysis of the zerodb tree.

Two rule families over one read of each file (see scripts/analysis/):

  per-file        repo invariants clang-tidy cannot express (lexical.py:
                  raw-mutex, raw-thread, stdout-io, naked-new,
                  discarded-status, include-hygiene) over src/ tests/
                  bench/ examples/ (.h .cc .cpp)
  whole-program   determinism audit (nondet-call / nondet-iter), cross-TU
                  lock-order cycles, lifetime (lifetime-return /
                  lifetime-member), module-DAG layering and the
                  interprocedural dataflow rules (unit-mix /
                  statusor-deref / hot-alloc) over src/ (.h .cc), lowered
                  by the lexical frontend textparse.py (checks.py)

Explicit FILE arguments get both families. A file that is not valid UTF-8
is reported as `io` and skipped by both.

Usage:
  scripts/zerodb_analyzer.py                  # whole tree
  scripts/zerodb_analyzer.py FILE...          # these files only
  scripts/zerodb_analyzer.py --changed-only   # findings a change vs --base
                                              # can influence
  scripts/zerodb_analyzer.py --self-test      # fixtures under
                                              # scripts/lint_fixtures/

Exit codes: 0 clean, 1 findings / self-test failure, 2 usage error.
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from analysis import callgraph, checks, ir, lexical, textparse  # noqa: E402
from analysis import files as source_files  # noqa: E402
from analysis import sarif as sarif_out  # noqa: E402

REPO_ROOT = os.path.realpath(
    os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir))
LEXICAL_ROOTS = ("src", "tests", "bench", "examples")
LEXICAL_EXTENSIONS = (".h", ".cc", ".cpp")
PROGRAM_EXTENSIONS = (".h", ".cc")
RULES = lexical.RULES + checks.ALL_RULES

LINT_FIXTURES = os.path.join(REPO_ROOT, "scripts", "lint_fixtures")


def _lexical_findings(path, rel, raw):
    return lexical.check_file(rel, raw, library=True)


def _program_findings(path, rel, raw):
    return checks.run_all({rel: textparse.parse_file(path, rel, raw)})


# One self-test loop over (fixture dir, marker regex, rule family): each
# fixture must produce exactly the findings its markers name.
FIXTURE_FAMILIES = (
    (LINT_FIXTURES, lexical.EXPECT_RE, _lexical_findings),
    (os.path.join(LINT_FIXTURES, "analyzer"), ir.EXPECT_RE,
     _program_findings),
)


def _rel(path):
    return os.path.relpath(os.path.realpath(path), REPO_ROOT).replace(
        os.sep, "/")


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


def self_test():
    failures = 0
    fixture_count = 0
    covered = set()
    for fixture_dir, marker_re, run_family in FIXTURE_FAMILIES:
        names = sorted(n for n in os.listdir(fixture_dir)
                       if n.endswith(LEXICAL_EXTENSIONS))
        if not names:
            print(f"FAIL no fixtures under {_rel(fixture_dir)}")
            failures += 1
        for name in names:
            path = os.path.join(fixture_dir, name)
            rel = _rel(path)
            raw, error = lexical.read_source(path, rel)
            found = ({(error.line, error.rule)} if error else
                     {(f.line, f.rule) for f in run_family(path, rel, raw)})
            expected = {(idx + 1, m.group(1))
                        for idx, line in enumerate(raw or ())
                        for m in marker_re.finditer(line)}
            problems = [f"missed expected: line {line} [{rule}]"
                        for line, rule in sorted(expected - found)]
            problems += [f"spurious finding: line {line} [{rule}]"
                         for line, rule in sorted(found - expected)]
            if name.startswith("good_") and expected:
                problems.append("good_ fixture must not carry markers")
            if name.startswith("bad_"):
                if not expected:
                    problems.append("bad_ fixture has no markers")
                covered |= {rule for _, rule in expected}
            fixture_count += 1
            if problems:
                failures += 1
                print(f"FAIL {rel}")
                for problem in problems:
                    print(f"  {problem}")
    missing = set(RULES) - covered
    if missing:
        failures += 1
        print("FAIL coverage: no bad_ fixture exercises: "
              + ", ".join(sorted(missing)))
    if failures:
        print(f"zerodb-analyzer self-test: FAIL ({failures} problem(s))")
        return 1
    print(f"zerodb-analyzer self-test: PASS ({fixture_count} fixtures, "
          f"all {len(RULES)} rules covered)")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="zerodb_analyzer.py",
        description="static analysis: per-file repo invariants and "
                    "whole-program checks (determinism, lock-order, "
                    "lifetime, layering, dataflow)")
    parser.add_argument("files", nargs="*",
                        help="analyze only these files (default: the tree)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the fixture suite")
    parser.add_argument("--sarif", metavar="PATH",
                        help="write findings as a SARIF 2.1.0 log (CI "
                             "uploads this as the analyze artifact)")
    parser.add_argument("--github", action="store_true",
                        help="emit one ::error workflow command per "
                             "finding so CI annotates offending lines")
    parser.add_argument("--changed-only", action="store_true",
                        help="fast path: report only findings in files "
                             "changed vs --base or, for the whole-program "
                             "rules, in functions the call graph connects "
                             "(either direction) to a changed file; the "
                             "whole tree is still parsed so cross-TU "
                             "checks stay sound")
    parser.add_argument("--base", default="HEAD",
                        help="git ref --changed-only diffs against "
                             "(default: HEAD)")
    args = parser.parse_args(argv)

    if args.self_test:
        if args.files:
            parser.error("--self-test takes no file arguments")
        return self_test()
    if args.changed_only and args.files:
        parser.error("--changed-only takes no file arguments")

    changed_rels = None
    if args.changed_only:
        changed_rels = {_rel(path) for path in source_files.changed_files(
            REPO_ROOT, LEXICAL_ROOTS, LEXICAL_EXTENSIONS, args.base,
            "zerodb-analyzer")}
        if not changed_rels:
            print("zerodb-analyzer: no changed analyzable files")
            if args.sarif:
                sarif_out.write_sarif(args.sarif, [], rules=RULES)
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
        paths = source_files.tree_files(REPO_ROOT, LEXICAL_ROOTS,
                                        LEXICAL_EXTENSIONS)
        if not paths:
            print("zerodb-analyzer: nothing under "
                  + ", ".join(f"{root}/" for root in LEXICAL_ROOTS),
                  file=sys.stderr)
            return 2

    lexical_found = []
    program_files = {}
    for path in paths:
        rel = _rel(path)
        raw, error = lexical.read_source(path, rel)
        if error:
            lexical_found.append(error)
            continue
        lexical_found.extend(lexical.check_file(
            rel, raw, library=rel.startswith("src/")))
        if args.files or (rel.startswith("src/")
                          and rel.endswith(PROGRAM_EXTENSIONS)):
            program_files[rel] = textparse.parse_file(path, rel, raw)
    program_found = checks.run_all(program_files)

    if changed_rels is not None:
        relevant = _relevant_rels(program_files, changed_rels)
        lexical_found = [f for f in lexical_found if f.rel in changed_rels]
        program_found = [f for f in program_found if f.rel in relevant]
    findings = sorted(lexical_found + program_found,
                      key=lambda f: (f.rel, f.line, f.rule))

    if args.sarif:
        sarif_out.write_sarif(args.sarif, findings, rules=RULES)
    if args.github:
        for line in sarif_out.github_annotations(findings):
            print(line)
    for finding in findings:
        print(finding)
    scope_note = ""
    if changed_rels is not None:
        scope_note = (f" (changed-only vs {args.base}: "
                      f"{len(changed_rels)} changed file(s))")
    print(f"zerodb-analyzer: {len(findings)} finding(s) across "
          f"{len(paths)} file(s)" + scope_note
          + (f"; wrote {os.path.relpath(args.sarif, os.getcwd())}"
             if args.sarif else ""))
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
