#!/usr/bin/env bash
# run_lint.sh — the three static layers of the correctness tooling, in order
# of cost:
#
#   1. scripts/check_invariants.py   — SeeSaw-specific contracts (no deps),
#      plus scripts/stamp_bench_meta.py --self-test (BENCH provenance stamp)
#   2. clang -Wthread-safety -Werror — lock-discipline build over src/
#   3. clang-tidy                    — bugprone/concurrency/performance checks
#
# Usage: ./scripts/run_lint.sh [--invariants-only]
#
# --invariants-only  run only layer 1. For hosts without clang/clang-tidy
#                    (the invariant linter is pure python); CI's lint leg
#                    always runs all three.
#
# Layers 2 and 3 need clang and clang-tidy on PATH; the script fails fast
# with an explicit message if either is missing rather than half-passing.
set -euo pipefail

SCRIPT_DIR="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
REPO_ROOT="$(dirname "$SCRIPT_DIR")"
cd "$REPO_ROOT"

INVARIANTS_ONLY=0
for arg in "$@"; do
  case "$arg" in
    --invariants-only) INVARIANTS_ONLY=1 ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

echo "=== Invariant linter (scripts/check_invariants.py) ==="
python3 scripts/check_invariants.py --self-test
python3 scripts/check_invariants.py
python3 scripts/stamp_bench_meta.py --self-test

if [[ "$INVARIANTS_ONLY" == 1 ]]; then
  echo "run_lint: invariants-only mode, skipping clang layers."
  exit 0
fi

# Fail fast — a missing tool must read as "install it", never as "lint
# passed". Prefer versioned names if the bare ones are absent.
CLANGXX="$(command -v clang++ || true)"
if [[ -z "$CLANGXX" ]]; then
  for v in 20 19 18 17 16 15 14; do
    CLANGXX="$(command -v "clang++-$v" || true)"
    [[ -n "$CLANGXX" ]] && break
  done
fi
CLANG_TIDY="$(command -v clang-tidy || true)"
if [[ -z "$CLANG_TIDY" ]]; then
  for v in 20 19 18 17 16 15 14; do
    CLANG_TIDY="$(command -v "clang-tidy-$v" || true)"
    [[ -n "$CLANG_TIDY" ]] && break
  done
fi
if [[ -z "$CLANGXX" || -z "$CLANG_TIDY" ]]; then
  echo "run_lint: FAILED — clang++ and clang-tidy are required for the" >&2
  echo "  thread-safety and clang-tidy layers (apt install clang clang-tidy," >&2
  echo "  or run with --invariants-only on hosts without them)." >&2
  [[ -z "$CLANGXX" ]] && echo "  missing: clang++" >&2
  [[ -z "$CLANG_TIDY" ]] && echo "  missing: clang-tidy" >&2
  exit 1
fi
echo "run_lint: using $CLANGXX and $CLANG_TIDY"

echo "=== Thread-safety build (clang -Wthread-safety -Werror) ==="
# Library code only: tests/bench/examples are single-threaded drivers or use
# raw threads deliberately (and the invariant linter gates those separately).
cmake -B build-lint -S . -DCMAKE_CXX_COMPILER="$CLANGXX" \
      -DSEESAW_THREAD_SAFETY_WERROR=ON \
      -DSEESAW_BUILD_TESTS=OFF -DSEESAW_BUILD_BENCH=OFF \
      -DSEESAW_BUILD_EXAMPLES=OFF
cmake --build build-lint -j

echo "=== clang-tidy (src/**/*.cc, warnings-as-errors) ==="
mapfile -t TIDY_SRCS < <(find src -name '*.cc' | sort)
"$CLANG_TIDY" -p build-lint --quiet "${TIDY_SRCS[@]}"

echo "run_lint: all layers clean."
