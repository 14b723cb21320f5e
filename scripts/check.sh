#!/usr/bin/env bash
# Sanitized build + test runs (the static gates live in scripts/lint.sh).
# Usage:
#   scripts/check.sh            # ASan AND TSan runs
#   scripts/check.sh address    # one sanitizer: address
#   scripts/check.sh thread     # one sanitizer: thread (TSan)
#   scripts/check.sh undefined  # UBSan, -fno-sanitize-recover (UB aborts)
#   scripts/check.sh all        # address + thread + undefined
#   scripts/check.sh ""         # plain build, no sanitizer
set -euo pipefail

cd "$(dirname "$0")/.."

# Compiler cache when available (CI restores .ccache across runs; local
# rebuilds of the three sanitizer trees benefit just as much).
CCACHE_ARGS=()
if command -v ccache > /dev/null 2>&1; then
  CCACHE_ARGS=(-DCMAKE_CXX_COMPILER_LAUNCHER=ccache)
fi

run_one() {
  local sanitizer="$1"
  local build_dir="build-check${sanitizer:+-$sanitizer}"
  # Release here is the repo's own -O2 -g *without* NDEBUG (see CMakeLists):
  # the debug-time plan/nn validators stay live, so every sanitized test
  # run is also an invariant-verification run.
  cmake -B "$build_dir" -S . -DZERODB_SANITIZE="$sanitizer" \
    -DCMAKE_BUILD_TYPE=Release "${CCACHE_ARGS[@]}"
  cmake --build "$build_dir" -j "$(nproc)"
  # Sanitizers slow tests 10-20x (TSan especially); ctest's default 600 s
  # per-test timeout is calibrated for plain builds, so raise it here.
  # Multithreaded tests declare PROCESSORS (tests/CMakeLists.txt) so -j
  # schedules by core budget instead of oversubscribing.
  ctest --test-dir "$build_dir" --output-on-failure -j "$(nproc)" \
    --timeout 2400
}

case "${1-__default__}" in
  __default__)
    # The default covers memory errors AND data races: the concurrency
    # layer (common/sync, obs) must stay TSan-clean, not just ASan-clean.
    run_one address
    run_one thread
    ;;
  all)
    run_one address
    run_one thread
    run_one undefined
    ;;
  *)
    run_one "$1"
    ;;
esac
