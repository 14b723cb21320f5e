"""zerodb-analyzer: AST-level whole-program analysis for the zerodb tree.

The package splits into three layers:

  ir.py          the frontend-neutral micro-IR every check consumes:
                 per-file functions (with ordered lock acquisitions,
                 range-for loops, calls, returns, locals), classes
                 (with members), includes and suppressions
  clangparse.py  libclang (clang.cindex) frontend — the real AST, used
                 when python3-clang + libclang are installed (CI)
  textparse.py   pure-python lexical frontend — a conservative
                 brace/token scanner that fills the same IR, so every
                 check still runs in containers without libclang
  checks.py      the whole-program checks (determinism audit,
                 lock-order cycles, lifetime, layering, plus the
                 dataflow.py rules) over the merged IR

Entry point: scripts/zerodb_analyzer.py.
"""

__all__ = ["ir", "textparse", "clangparse", "checks"]
