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
  scripts/zerodb_analyzer.py --self-test      # fixtures under
                                              # scripts/lint_fixtures/

Findings print as text, one per line. Under GitHub Actions
(GITHUB_ACTIONS=true) each finding is followed by an `::error` workflow
command so the run annotates the offending line.

Exit codes: 0 clean, 1 findings / self-test failure, 2 usage error.
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from analysis import checks, ir, lexical, textparse  # noqa: E402

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


def tree_files(repo_root, roots, extensions):
    """Absolute paths of every file under `roots` (relative to `repo_root`)
    whose name ends in one of `extensions`, in sorted walk order."""
    out = []
    for root in roots:
        for dirpath, dirs, names in os.walk(os.path.join(repo_root, root)):
            dirs.sort()
            for name in sorted(names):
                if name.endswith(extensions):
                    out.append(os.path.join(dirpath, name))
    return out


def _escape_property(text):
    # GitHub workflow-command property escaping.
    return (text.replace("%", "%25").replace("\r", "%0D")
            .replace("\n", "%0A").replace(":", "%3A").replace(",", "%2C"))


def _escape_data(text):
    return text.replace("%", "%25").replace("\r", "%0D").replace("\n", "%0A")


def github_annotation(finding):
    """The `::error` workflow command that annotates `finding`'s line."""
    return (f"::error file={_escape_property(finding.rel)},"
            f"line={finding.line},"
            f"title={_escape_property('zerodb-analyzer: ' + finding.rule)}::"
            f"{_escape_data(finding.message)}")


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
    args = parser.parse_args(argv)

    if args.self_test:
        if args.files:
            parser.error("--self-test takes no file arguments")
        return self_test()

    if args.files:
        paths = []
        for f in args.files:
            if not os.path.isfile(f):
                print(f"zerodb-analyzer: no such file: {f}",
                      file=sys.stderr)
                return 2
            paths.append(os.path.abspath(f))
    else:
        paths = tree_files(REPO_ROOT, LEXICAL_ROOTS, LEXICAL_EXTENSIONS)
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

    findings = sorted(lexical_found + program_found,
                      key=lambda f: (f.rel, f.line, f.rule))

    annotate = os.environ.get("GITHUB_ACTIONS") == "true"
    for finding in findings:
        print(finding)
        if annotate:
            print(github_annotation(finding))
    print(f"zerodb-analyzer: {len(findings)} finding(s) across "
          f"{len(paths)} file(s)")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
