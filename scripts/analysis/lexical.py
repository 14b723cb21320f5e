"""Per-file repo-invariant rules of zerodb-analyzer (checks clang-tidy
cannot express). Each rule looks at one file's lines only; the
whole-program rules live in checks.py.

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
  naked-new         `new` in library code whose result is not immediately
                    owned (same line must contain unique_ptr/make_unique/
                    shared_ptr) and is not the `static X* x = new X`
                    leak-singleton idiom.
  discarded-status  `(void)fn(...)` casts with no nearby comment saying
                    why the discard is sound — Status and StatusOr are
                    class-level [[nodiscard]] (the compile-fail ctests
                    status_nodiscard/statusor_nodiscard pin that), so every
                    cast is a deliberate override that needs a
                    justification.
  include-hygiene   files using ZDB_ thread-safety annotation macros must
                    directly include common/thread_annotations.h (or
                    common/sync.h); files using Mutex/MutexLock/CondVar must
                    directly include common/sync.h. No include-what-you-use
                    via transitive headers for locking primitives.

A file that cannot be read as UTF-8 is reported as `io` (see read_source)
and gets no other check.
"""

import re

from . import suppress
from .ir import Finding, strip_code

RULES = ("raw-mutex", "raw-thread", "stdout-io", "naked-new",
         "discarded-status", "include-hygiene")

# Fixture-only marker (see scripts/lint_fixtures/): this line must be
# flagged with <rule> by the per-file rules.
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

def read_source(path, rel):
    """Returns (lines, None), or (None, io Finding) when the file cannot be
    opened or is not valid UTF-8. Strict decoding: a replaced byte could
    hide or invent a token, so neither rule family sees such a file."""
    try:
        with open(path, encoding="utf-8") as f:
            return f.read().splitlines(), None
    except (OSError, UnicodeDecodeError) as e:
        return None, Finding(rel, 1, "io", f"unreadable: {e}")


def has_nearby_comment(raw_lines, idx):
    """True if line idx or one of the three preceding lines has a comment
    (the justification requirement for discarded-status). Fixture
    `expect-lint` markers don't count as justification."""
    for j in range(max(0, idx - 3), idx + 1):
        line = EXPECT_RE.sub("", raw_lines[j])
        if "//" in line or "/*" in line:
            return True
    return False


def check_file(rel, raw, library):
    """Runs the per-file rules over one file's lines. `library` selects
    library-code scoping (stdout-io, naked-new): true for src/, and for
    the fixtures, which live outside src/."""
    code = strip_code(raw)
    in_sync = rel in ("src/common/sync.h", "src/common/sync.cc")
    in_thread_pool = rel in ("src/common/thread_pool.h",
                             "src/common/thread_pool.cc")
    findings = []

    def report(idx, rule, message):
        if not suppress.suppressed(raw, idx, rule):
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

    return findings
