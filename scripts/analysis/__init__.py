"""zerodb-analyzer: static analysis for the zerodb tree.

The package splits into these layers:

  lexical.py     the per-file repo-invariant rules (raw-mutex,
                 raw-thread, stdout-io, naked-new, discarded-status,
                 include-hygiene) and the strict UTF-8 source reader
  ir.py          the micro-IR every whole-program check consumes:
                 per-file functions (with ordered lock acquisitions,
                 range-for loops, calls, returns, locals), classes
                 (with members), includes and suppressions
  textparse.py   the lexical frontend — a conservative brace/token
                 scanner that fills the IR
  checks.py      the whole-program checks (determinism audit,
                 lock-order cycles, lifetime, layering, plus the
                 dataflow.py rules over the callgraph.py call graph)
                 over the merged IR
  suppress.py    the `zerodb-lint: allow(...)` syntax both families share

Entry point: scripts/zerodb_analyzer.py, which walks the tree, runs the
fixture self-test and prints the one text report (plus `::error`
annotations under GitHub Actions).
"""

__all__ = ["lexical", "ir", "textparse", "checks"]
