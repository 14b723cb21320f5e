#!/usr/bin/env python3
"""zerodb-lint: repo-invariant checks clang-tidy cannot express.

Rules (all suppressible on a given line — or the line above it — with
`// zerodb-lint: allow(<rule>)` plus a reason):

  raw-mutex         std::mutex / std::lock_guard / std::condition_variable
                    etc. anywhere outside src/common/sync.{h,cc}. Everything
                    locks through the annotated zerodb::Mutex wrappers so
                    clang's -Wthread-safety sees every acquisition.
  raw-thread        std::thread / std::jthread / std::async / .detach()
                    anywhere outside src/common/thread_pool.{h,cc}. Work
                    fans out through zerodb::ThreadPool so pool metrics,
                    shutdown draining and the determinism contracts stay
                    centralized; detached threads are never acceptable.
  stdout-io         std::cout / std::cerr / printf-family in library code
                    (src/). Library output goes through ZDB_LOG so sinks,
                    levels and thread-atomic lines keep working. Tests,
                    benches and examples may print.
  naked-new         `new` whose result is not immediately owned (same line
                    must contain unique_ptr/make_unique/shared_ptr) and is
                    not the `static X* x = new X` leak-singleton idiom.
  discarded-status  (a) `(void)fn(...)` casts with no nearby comment saying
                    why the discard is sound — Status and StatusOr are
                    class-level [[nodiscard]], so every cast is a deliberate
                    override that needs a justification; (b) the
                    [[nodiscard]] markers themselves must stay present in
                    src/common/status.h.
  include-hygiene   files using ZDB_ thread-safety annotation macros must
                    directly include common/thread_annotations.h (or
                    common/sync.h); files using Mutex/MutexLock/CondVar must
                    directly include common/sync.h. No include-what-you-use
                    via transitive headers for locking primitives.

Usage:
  scripts/zerodb_lint.py              # lint src/ tests/ bench/ examples/
  scripts/zerodb_lint.py FILE...      # lint specific files
  scripts/zerodb_lint.py --self-test  # verify the known-bad fixtures under
                                      # scripts/lint_fixtures/ are all
                                      # flagged (and only as expected)

Exit status: 0 clean, 1 violations (or self-test mismatch), 2 usage error.
Wired into scripts/lint.sh and scripts/check.sh; CI runs both the tree scan
and the self-test.
"""

import argparse
import os
import re
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from analysis import files as source_files  # noqa: E402
from analysis import suppress as _suppress  # noqa: E402

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURE_DIR = os.path.join("scripts", "lint_fixtures")
SCAN_ROOTS = ("src", "tests", "bench", "examples")
EXTENSIONS = (".h", ".cc", ".cpp")

# Suppression syntax is shared with zerodb-analyzer; the single parser
# lives in scripts/analysis/suppress.py (one parser, one behavior).
SUPPRESS_RE = _suppress.SUPPRESS_RE
EXPECT_RE = re.compile(r"//\s*expect-lint:\s*([a-z-]+)")

RAW_MUTEX_RE = re.compile(
    r"\bstd::(?:mutex|timed_mutex|recursive_mutex|recursive_timed_mutex|"
    r"shared_mutex|shared_timed_mutex|lock_guard|unique_lock|scoped_lock|"
    r"shared_lock|condition_variable|condition_variable_any)\b"
)
RAW_THREAD_RE = re.compile(
    r"\bstd::(?:thread|jthread|async)\b|\.detach\s*\(\s*\)"
)
STDOUT_IO_RE = re.compile(
    r"std::cout|std::cerr|(?<![A-Za-z0-9_])(?:printf|fprintf|puts|fputs|"
    r"putchar)\s*\("
)
# `new` in expression position; `delete` of any kind is not flagged (the
# tree is smart-pointer owned; delete never appears outside sync anyway).
NAKED_NEW_RE = re.compile(r"(?<![A-Za-z0-9_])new\s+[A-Za-z_:(]")
OWNED_NEW_RE = re.compile(r"unique_ptr|make_unique|shared_ptr|\bstatic\b")
VOID_CAST_RE = re.compile(r"\(void\)\s*[A-Za-z_][A-Za-z0-9_:.\->]*\s*\(")
ANNOTATION_MACRO_RE = re.compile(
    r"\bZDB_(?:CAPABILITY|SCOPED_CAPABILITY|GUARDED_BY|PT_GUARDED_BY|"
    r"REQUIRES|REQUIRES_SHARED|EXCLUDES|ACQUIRE|ACQUIRE_SHARED|RELEASE|"
    r"RELEASE_SHARED|TRY_ACQUIRE|ASSERT_CAPABILITY|RETURN_CAPABILITY|"
    r"NO_THREAD_SAFETY_ANALYSIS)\b"
)
SYNC_TYPE_RE = re.compile(r"\b(?:Mutex|MutexLock|CondVar)\b")
ANNOTATION_INCLUDE_RE = re.compile(
    r'#include\s+"common/(?:thread_annotations|sync)\.h"'
)
SYNC_INCLUDE_RE = re.compile(r'#include\s+"common/sync\.h"')

NODISCARD_MARKERS = (
    "class [[nodiscard]] Status",
    "class [[nodiscard]] StatusOr",
)


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line  # 1-based
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_code(lines):
    """Returns lines with comments and string/char literals blanked out, so
    rule regexes only see code. Tracks /* */ across lines; ignores raw
    strings (unused in this tree)."""
    stripped = []
    in_block = False
    for line in lines:
        out = []
        i = 0
        n = len(line)
        while i < n:
            if in_block:
                end = line.find("*/", i)
                if end < 0:
                    i = n
                else:
                    in_block = False
                    i = end + 2
                continue
            ch = line[i]
            nxt = line[i + 1] if i + 1 < n else ""
            if ch == "/" and nxt == "/":
                break
            if ch == "/" and nxt == "*":
                in_block = True
                i += 2
                continue
            if ch in "\"'":
                quote = ch
                i += 1
                while i < n:
                    if line[i] == "\\":
                        i += 2
                        continue
                    if line[i] == quote:
                        i += 1
                        break
                    i += 1
                out.append(quote + quote)
                continue
            out.append(ch)
            i += 1
        stripped.append("".join(out))
    return stripped


def suppressed(raw_lines, idx, rule):
    """True if line idx (0-based) or the line above carries
    `// zerodb-lint: allow(rule)` (shared parser, analysis/suppress.py)."""
    return _suppress.suppressed(raw_lines, idx, rule)


def has_nearby_comment(raw_lines, idx):
    """True if line idx or one of the three preceding lines has a comment
    (the justification requirement for discarded-status). Fixture
    `expect-lint` markers don't count as justification."""
    for j in range(max(0, idx - 3), idx + 1):
        line = EXPECT_RE.sub("", raw_lines[j])
        if "//" in line or "/*" in line:
            return True
    return False


def norm(path):
    return os.path.relpath(path, REPO_ROOT).replace(os.sep, "/")


def lint_file(path, as_library=None):
    """Lints one file; `as_library` forces library-code scoping (used for
    fixtures, which live outside src/)."""
    rel = norm(path)
    try:
        with open(path, encoding="utf-8") as f:
            raw = f.read().splitlines()
    except (OSError, UnicodeDecodeError) as e:
        return [Finding(rel, 1, "io", f"unreadable: {e}")]
    code = strip_code(raw)
    in_fixture = rel.startswith(FIXTURE_DIR.replace(os.sep, "/"))
    library = as_library if as_library is not None else rel.startswith("src/")
    in_sync = rel in ("src/common/sync.h", "src/common/sync.cc")
    in_thread_pool = rel in ("src/common/thread_pool.h",
                             "src/common/thread_pool.cc")
    findings = []

    def report(idx, rule, message):
        if not suppressed(raw, idx, rule):
            findings.append(Finding(rel, idx + 1, rule, message))

    first_annotation_use = None
    first_sync_type_use = None
    has_annotation_include = False
    has_sync_include = False

    for idx, line in enumerate(code):
        if not in_sync and RAW_MUTEX_RE.search(line):
            report(idx, "raw-mutex",
                   "raw std::mutex-family primitive; use the annotated "
                   "zerodb::Mutex/MutexLock/CondVar from common/sync.h")
        if not in_thread_pool and RAW_THREAD_RE.search(line):
            report(idx, "raw-thread",
                   "raw std::thread/std::jthread/std::async/.detach(); "
                   "schedule work on zerodb::ThreadPool "
                   "(common/thread_pool.h)")
        if library and STDOUT_IO_RE.search(line):
            report(idx, "stdout-io",
                   "direct stdout/stderr I/O in library code; use ZDB_LOG "
                   "(common/logging.h)")
        m = NAKED_NEW_RE.search(line)
        if library and m and not OWNED_NEW_RE.search(line):
            report(idx, "naked-new",
                   "`new` without immediate smart-pointer ownership (or "
                   "`static` leak-singleton idiom on the same line)")
        if VOID_CAST_RE.search(line) and not has_nearby_comment(raw, idx):
            report(idx, "discarded-status",
                   "(void)-discarded call without a nearby comment "
                   "justifying the discard")
        # Includes are matched on the raw line: the stripper blanks the
        # quoted path.
        if ANNOTATION_INCLUDE_RE.search(raw[idx]):
            has_annotation_include = True
        if SYNC_INCLUDE_RE.search(raw[idx]):
            has_sync_include = True
        if first_annotation_use is None and ANNOTATION_MACRO_RE.search(line):
            first_annotation_use = idx
        if first_sync_type_use is None and SYNC_TYPE_RE.search(line):
            first_sync_type_use = idx

    if rel != "src/common/thread_annotations.h" and not in_sync:
        if first_annotation_use is not None and not has_annotation_include:
            report(first_annotation_use, "include-hygiene",
                   "uses ZDB_ thread-safety annotations without directly "
                   'including "common/thread_annotations.h" (or '
                   '"common/sync.h")')
        if first_sync_type_use is not None and not has_sync_include:
            report(first_sync_type_use, "include-hygiene",
                   "uses Mutex/MutexLock/CondVar without directly including "
                   '"common/sync.h"')

    if rel == "src/common/status.h":
        text = "\n".join(raw)
        for marker in NODISCARD_MARKERS:
            if marker not in text:
                findings.append(Finding(
                    rel, 1, "discarded-status",
                    f"missing `{marker}`: the tree-wide no-discarded-Status "
                    "guarantee rests on the class-level [[nodiscard]]"))
    return findings


def self_test():
    fixture_dir = os.path.join(REPO_ROOT, FIXTURE_DIR)
    fixtures = sorted(
        os.path.join(fixture_dir, n) for n in os.listdir(fixture_dir)
        if n.endswith(EXTENSIONS))
    if not fixtures:
        print(f"zerodb_lint: no fixtures under {FIXTURE_DIR}", file=sys.stderr)
        return 1
    failures = 0
    total_expected = 0
    for path in fixtures:
        rel = norm(path)
        with open(path, encoding="utf-8") as f:
            raw = f.read().splitlines()
        expected = set()
        for idx, line in enumerate(raw):
            for m in EXPECT_RE.finditer(line):
                expected.add((idx + 1, m.group(1)))
        total_expected += len(expected)
        actual = {(f.line, f.rule)
                  for f in lint_file(path, as_library=True)}
        for line_no, rule in sorted(expected - actual):
            print(f"SELF-TEST FAIL {rel}:{line_no}: expected [{rule}] "
                  "not reported")
            failures += 1
        for line_no, rule in sorted(actual - expected):
            print(f"SELF-TEST FAIL {rel}:{line_no}: unexpected [{rule}]")
            failures += 1
    if failures:
        return 1
    print(f"zerodb_lint: self-test OK ({len(fixtures)} fixtures, "
          f"{total_expected} expected findings all reported)")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="*",
                        help="files to lint (default: whole tree)")
    parser.add_argument("--self-test", action="store_true",
                        help="verify the known-bad fixtures are flagged")
    parser.add_argument("--changed-only", action="store_true",
                        help="lint only files changed vs --base (plus "
                             "untracked files) instead of the whole tree")
    parser.add_argument("--base", default="HEAD",
                        help="git ref --changed-only diffs against "
                             "(default: HEAD)")
    args = parser.parse_args()

    if args.self_test:
        if args.files:
            parser.error("--self-test takes no file arguments")
        return self_test()
    if args.changed_only and args.files:
        parser.error("--changed-only takes no file arguments")

    if args.changed_only:
        files = source_files.changed_files(
            REPO_ROOT, SCAN_ROOTS, EXTENSIONS, args.base, "zerodb_lint")
        if not files:
            print("zerodb_lint: no changed lintable files")
            return 0
    elif args.files:
        files = [os.path.abspath(f) for f in args.files]
    else:
        files = source_files.tree_files(REPO_ROOT, SCAN_ROOTS, EXTENSIONS)
    for f in files:
        if not os.path.isfile(f):
            print(f"zerodb_lint: no such file: {f}", file=sys.stderr)
            return 2

    findings = []
    for f in files:
        findings.extend(lint_file(f))
    for finding in findings:
        print(finding)
    if findings:
        print(f"zerodb_lint: {len(findings)} violation(s)", file=sys.stderr)
        return 1
    print(f"zerodb_lint: {len(files)} files clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
