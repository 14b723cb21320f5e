"""Micro-IR for zerodb-analyzer's whole-program rules.

The lexical frontend (textparse.py) lowers a translation unit into these
structures and every check in checks.py consumes only this IR. The
Finding type and strip_code are shared with the per-file rules
(lexical.py).

Line numbers are 1-based throughout (matching compiler diagnostics).
"""

import re
from dataclasses import dataclass, field

from . import suppress

# Fixture-only markers (see scripts/lint_fixtures/analyzer/):
#   // expect-analyzer: <rule>           this line must be flagged
#   // analyzer-fixture: module(<name>)  pretend the file lives in src/<name>/
EXPECT_RE = re.compile(r"//\s*expect-analyzer:\s*([a-z-]+)")
MODULE_MARKER_RE = re.compile(r"//\s*analyzer-fixture:\s*module\(([a-z_]+)\)")


@dataclass
class CallSite:
    """One call expression: `name` is the unqualified callee, `qualified`
    keeps whatever qualification the frontend saw (`std::chrono::
    steady_clock::now`, `obs::MetricsRegistry::Global`, ...)."""

    name: str
    qualified: str
    line: int


@dataclass
class LockAcquire:
    """One RAII `MutexLock guard(&expr)` (or explicit `expr.Lock()`).
    `lock_id` is the canonical cross-TU identity of the lock object;
    `held_until` is the last line of the scope holding it."""

    lock_id: str
    line: int
    held_until: int


@dataclass
class RangeFor:
    """A range-based for; `container` is the source text of the range
    expression, `container_type` the declared type when the frontend could
    resolve it (empty otherwise). Body spans [body_begin, body_end]."""

    container: str
    container_type: str
    line: int
    body_begin: int
    body_end: int


@dataclass
class ReturnStmt:
    """`expr` is the returned expression's source text ('' for bare
    return); the lifetime check matches it against the function's
    `locals`."""

    expr: str
    line: int


@dataclass
class Function:
    """Functions are only materialized for the lifetime check (return type
    + body-local variables); calls/locks/loops live on FileIR because the
    lock-scope stack and the determinism audit don't need function
    identity."""

    name: str
    qualified: str
    return_type: str
    line: int
    end_line: int
    returns: "list[ReturnStmt]" = field(default_factory=list)
    # local (non-static) variable name -> declared type text
    locals: "dict[str, str]" = field(default_factory=dict)


@dataclass
class Member:
    type_text: str
    name: str
    line: int


@dataclass
class ClassDecl:
    name: str
    line: int
    members: "list[Member]" = field(default_factory=list)


@dataclass
class Include:
    header: str  # as written: "exec/executor.h"
    line: int
    system: bool = False  # <...> includes


@dataclass
class FileIR:
    """Everything the checks need to know about one source file."""

    path: str  # absolute
    rel: str  # repo-relative, '/'-separated
    module: str  # "exec" for src/exec/..., "" when not a module file
    raw_lines: "list[str]" = field(default_factory=list)
    includes: "list[Include]" = field(default_factory=list)
    functions: "list[Function]" = field(default_factory=list)
    classes: "list[ClassDecl]" = field(default_factory=list)
    calls: "list[CallSite]" = field(default_factory=list)
    locks: "list[LockAcquire]" = field(default_factory=list)
    range_fors: "list[RangeFor]" = field(default_factory=list)
    # every declaration seen in the file (locals, members, globals):
    # variable name -> declared type text, for range-for type resolution
    decl_types: "dict[str, str]" = field(default_factory=dict)

    def suppressed(self, line: int, rule: str) -> bool:
        """True when `line` (1-based) or the line above carries
        `// zerodb-lint: allow(...)` naming `rule`."""
        return suppress.suppressed(self.raw_lines, line - 1, rule)

    def fixture_module(self) -> "str | None":
        for line in self.raw_lines[:10]:
            m = MODULE_MARKER_RE.search(line)
            if m:
                return m.group(1)
        return None


@dataclass
class Finding:
    rel: str
    line: int
    rule: str
    message: str

    def __str__(self):
        return f"{self.rel}:{self.line}: [{self.rule}] {self.message}"


def module_of(rel: str) -> str:
    """src/exec/executor.cc -> "exec"; anything else -> ""."""
    parts = rel.split("/")
    if len(parts) >= 3 and parts[0] == "src":
        return parts[1]
    return ""


def strip_code(lines):
    """Blanks comments and string/char literals so token scans only see
    code. Tracks /* */ across lines; ignores raw strings (unused in this
    tree)."""
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
