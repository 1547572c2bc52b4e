#!/usr/bin/env bash
# ci.sh — configure, build, and test exactly as the tier-1 verify does.
#
# Usage: ./scripts/ci.sh [--native] [--tsan] [--asan] [--lint] [--skip-base]
#
# Base pass (default): generic Release configure + build + full ctest, plus a
# SEESAW_FORCE_KERNEL=scalar re-run of the kernel-sensitive suites so the
# env-pinned scalar dispatch path is proven end-to-end on every run.
#
# --native   additionally builds with SEESAW_ENABLE_NATIVE_ARCH=ON
#            (-march=native) in build-native and runs the full suite there —
#            the runtime SIMD dispatch must stay bitwise-correct even when
#            the surrounding code is host-tuned.
# --tsan     additionally builds CMAKE_BUILD_TYPE=Tsan in build-tsan and runs
#            the suites labeled `concurrency` (see SEESAW_CONCURRENCY_TESTS
#            in CMakeLists.txt) under ThreadSanitizer, then repeats the two
#            speculation suites (prefetch_test, refit_speculation_test) up
#            to 20 times, stopping at the first failure.
# --asan     additionally builds CMAKE_BUILD_TYPE=Asan (AddressSanitizer +
#            UBSan) in build-asan and runs the full suite — remainder-lane
#            intrinsics bugs are exactly what this leg catches.
# --lint     runs scripts/run_lint.sh: the SeeSaw invariant linter, a clang
#            -Wthread-safety -Werror build of src/, and clang-tidy. Fails
#            fast with an install hint if clang/clang-tidy are missing
#            (run_lint.sh --invariants-only covers clang-less hosts).
# --skip-base  skip the base pass (for CI matrix legs that only want one of
#            the configurations above).
set -euo pipefail

SCRIPT_DIR="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
REPO_ROOT="$(dirname "$SCRIPT_DIR")"
cd "$REPO_ROOT"

RUN_BASE=1
RUN_NATIVE=0
RUN_TSAN=0
RUN_ASAN=0
RUN_LINT=0
for arg in "$@"; do
  case "$arg" in
    --native) RUN_NATIVE=1 ;;
    --tsan) RUN_TSAN=1 ;;
    --asan) RUN_ASAN=1 ;;
    --lint) RUN_LINT=1 ;;
    --skip-base) RUN_BASE=0 ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

if [[ "$RUN_LINT" == 1 ]]; then
  echo "=== Lint pass (invariants + thread-safety + clang-tidy) ==="
  ./scripts/run_lint.sh
fi

if [[ "$RUN_BASE" == 1 ]]; then
  echo "=== Base pass (Release, generic) ==="
  cmake -B build -S .
  cmake --build build -j
  (cd build && ctest --output-on-failure -j)
  echo "=== Forced-scalar dispatch pass ==="
  # Suite selection lives in SEESAW_KERNEL_TESTS (CMakeLists.txt) — same
  # label convention as the TSan leg, so new kernel-sensitive suites can't
  # be silently skipped here.
  (cd build &&
   SEESAW_FORCE_KERNEL=scalar ctest --output-on-failure -L kernel -j)
fi

if [[ "$RUN_NATIVE" == 1 ]]; then
  echo "=== Native-arch pass (SEESAW_ENABLE_NATIVE_ARCH=ON) ==="
  cmake -B build-native -S . -DSEESAW_ENABLE_NATIVE_ARCH=ON
  cmake --build build-native -j
  (cd build-native && ctest --output-on-failure -j)
fi

if [[ "$RUN_TSAN" == 1 ]]; then
  echo "=== ThreadSanitizer pass ==="
  cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=Tsan \
        -DSEESAW_BUILD_BENCH=OFF -DSEESAW_BUILD_EXAMPLES=OFF
  cmake --build build-tsan -j
  (cd build-tsan && ctest --output-on-failure -L concurrency -j)
  # The speculation suites race the searcher against its pool tasks; one
  # clean pass proves little, so repeat them.
  (cd build-tsan &&
   ctest --output-on-failure --repeat until-fail:20 \
         -R '^(prefetch_test|refit_speculation_test)$')
fi

if [[ "$RUN_ASAN" == 1 ]]; then
  echo "=== AddressSanitizer+UBSan pass ==="
  cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=Asan \
        -DSEESAW_BUILD_BENCH=OFF -DSEESAW_BUILD_EXAMPLES=OFF
  cmake --build build-asan -j
  (cd build-asan && ctest --output-on-failure -j)
fi
