#!/usr/bin/env bash
# Static-analysis runner. Usage:
#   scripts/lint.sh             # zerodb-analyzer (whole tree) + clang-tidy
#                               # over src/
#   scripts/lint.sh --format    # clang-format verify-only pass (no rewrites)
#   scripts/lint.sh src/nn      # zerodb-analyzer + clang-tidy over one
#                               # subtree (the analyzer always scans the tree)
#
# This is the one place the static gates run: the analyzer self-test, its
# tree scan and tooling_test.py run here once (CI's lint job), never in
# scripts/check.sh, which only runs sanitizers.
#
# Exits non-zero on any finding. When an *optional external* tool is not
# installed (clang-tidy/clang-format in minimal containers that only ship
# gcc), prints a SKIPPED notice and exits 0 so the rest of the verification
# pipeline (`-Werror` build, UBSan, debug validators) still gates the tree;
# CI installs the tools and runs the real thing. zerodb_analyzer.py is NOT
# optional: it needs only python3, and findings always fail the run.
#
# scripts/lint_fixtures/ (known-bad analyzer snippets) is exempt from
# tidy and format: the tidy/format file globs below cover only
# src/tests/bench/examples, and the fixture directory carries its own
# .clang-tidy disabling every check.
set -euo pipefail

cd "$(dirname "$0")/.."

find_tool() {
  # Accept both plain and versioned binaries (clang-tidy-18, ...).
  local base="$1"
  if command -v "$base" > /dev/null 2>&1; then
    echo "$base"
    return 0
  fi
  local versioned
  versioned="$(compgen -c "$base-" 2> /dev/null | grep -E "^$base-[0-9]+$" \
               | sort -rV | head -1 || true)"
  if [[ -n "$versioned" ]]; then
    echo "$versioned"
    return 0
  fi
  return 1
}

if [[ "${1-}" == "--format" ]]; then
  if ! FORMATTER="$(find_tool clang-format)"; then
    echo "lint.sh: SKIPPED (clang-format not installed)" >&2
    exit 0
  fi
  mapfile -t files < <(git ls-files \
    'src/**/*.h' 'src/**/*.cc' 'tests/*.cc' 'bench/*.cc' 'bench/*.h' \
    'examples/*.cpp')
  echo "lint.sh: checking formatting of ${#files[@]} files with $FORMATTER"
  "$FORMATTER" --dry-run --Werror "${files[@]}"
  echo "lint.sh: formatting clean"
  exit 0
fi

# --- zerodb-analyzer: per-file repo invariants (raw-mutex, raw-thread,
# stdout-io, naked-new, discarded-status, include-hygiene) and the
# whole-program checks (determinism audit, lock-order cycles, lifetime,
# layering, and the interprocedural dataflow rules unit-mix /
# statusor-deref / hot-alloc). Self-test first so a broken analyzer can't
# silently pass the tree.
if command -v python3 > /dev/null 2>&1; then
  echo "lint.sh: zerodb-analyzer self-test"
  python3 scripts/zerodb_analyzer.py --self-test
  echo "lint.sh: zerodb-analyzer tree scan"
  python3 scripts/zerodb_analyzer.py

  # --- tooling negative-path tests: bench_summary / trace_validate /
  # bench_compare must reject malformed inputs cleanly (no tracebacks).
  echo "lint.sh: tooling negative-path tests"
  python3 scripts/tooling_test.py
else
  echo "lint.sh: zerodb-analyzer SKIPPED (python3 not installed)" >&2
fi

if ! TIDY="$(find_tool clang-tidy)"; then
  echo "lint.sh: SKIPPED (clang-tidy not installed)" >&2
  exit 0
fi

# clang-tidy needs a compilation database; the default build exports one
# (CMAKE_EXPORT_COMPILE_COMMANDS in CMakeLists.txt).
BUILD_DIR="${BUILD_DIR:-build}"
if [[ ! -f "$BUILD_DIR/compile_commands.json" ]]; then
  cmake -B "$BUILD_DIR" -S . > /dev/null
fi

TARGET="${1:-src}"
mapfile -t sources < <(git ls-files "$TARGET/**/*.cc" "$TARGET/*.cc")
if [[ "${#sources[@]}" -eq 0 ]]; then
  echo "lint.sh: no sources under '$TARGET'" >&2
  exit 1
fi

echo "lint.sh: running $TIDY on ${#sources[@]} files"
status=0
if RUNNER="$(find_tool run-clang-tidy)"; then
  "$RUNNER" -clang-tidy-binary "$TIDY" -p "$BUILD_DIR" -quiet \
    "${sources[@]}" || status=$?
else
  for source in "${sources[@]}"; do
    "$TIDY" -p "$BUILD_DIR" --quiet "$source" || status=$?
  done
fi
if [[ "$status" -ne 0 ]]; then
  echo "lint.sh: clang-tidy found issues" >&2
  exit "$status"
fi
echo "lint.sh: clean"
