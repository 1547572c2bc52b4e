#!/usr/bin/env bash
# Builds the benchmark (Release, into build/benchmark) and runs one workload:
#
#   bash benchmark/run.sh --workload think|saturate|remote --seed N \
#                         --seconds S --trace 0|1
#
# Run from any directory; paths resolve against the repository root. Build
# output goes to stderr, so the last stdout line is the run's JSON result.
# Results, and for --trace 1 the Chrome trace, land in build/benchmark/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
build="$root/build/benchmark"

generator=()
if command -v ninja >/dev/null 2>&1; then
  generator=(-G Ninja)
fi
cmake -S "$here" -B "$build" "${generator[@]}" -DCMAKE_BUILD_TYPE=Release >&2
cmake --build "$build" --target seesaw_benchmark -j "$(nproc)" >&2

sha="unknown"
dirty="unknown"
if [[ -e "$root/.git" ]] && command -v git >/dev/null 2>&1; then
  sha="$(git -C "$root" rev-parse HEAD)"
  if [[ -n "$(git -C "$root" status --porcelain --untracked-files=no)" ]]; then
    dirty=1
  else
    dirty=0
  fi
fi

exec "$build/seesaw_benchmark" "$@" --out_dir "$build" \
  --git_sha "$sha" --git_dirty "$dirty"
