"""Shared `// zerodb-lint: allow(...)` suppression parsing.

One parser, one behavior: the per-file rules (lexical.py) and the
whole-program checks (checks.py, dataflow.py) honor the same comment
syntax:

    // zerodb-lint: allow(rule)
    // zerodb-lint: allow(rule-a, rule-b)

on the offending line or the line directly above it. Rule names are
lower-case kebab-case; whitespace around commas is ignored. Unit tests live
in scripts/tooling_test.py (suppress.py section).
"""

import re

# One rule or a comma-separated list, spaces allowed.
SUPPRESS_RE = re.compile(
    r"zerodb-lint:\s*allow\(([a-z-]+(?:\s*,\s*[a-z-]+)*)\)")


def allowed_rules(line):
    """The set of rule names a single source line suppresses (empty when
    the line carries no marker; a malformed marker suppresses nothing)."""
    m = SUPPRESS_RE.search(line)
    if not m:
        return frozenset()
    return frozenset(rule.strip() for rule in m.group(1).split(","))


def suppressed(raw_lines, idx, rule):
    """True when line `idx` (0-based) or the line directly above carries
    `// zerodb-lint: allow(...)` naming `rule`."""
    for j in (idx, idx - 1):
        if 0 <= j < len(raw_lines) and rule in allowed_rules(raw_lines[j]):
            return True
    return False
