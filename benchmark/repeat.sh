#!/usr/bin/env bash
# Runs every workload N times (default 5), alternating the workload order
# between rounds and giving each round its own seed, then one --trace 1 run
# per workload, and checks the lot with check.py: every declared metric is
# printed and every end-to-end metric's quartile spread, as a share of its
# median, stays within its bound. The table it prints (median, q1, q3,
# spread, bound) is what the bounds in BENCHMARK.json were set from.
#
#   bash benchmark/repeat.sh [N] [FIRST_SEED]
#
# Outputs go to build/benchmark/repeat/<workload>_t<trace>_s<seed>.out.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
n="${1:-5}"
first_seed="${2:-1}"
seconds="$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$root/BENCHMARK.json")"
mapfile -t workloads < <(python3 -c 'import json,sys; [print(w["name"]) for w in json.load(open(sys.argv[1]))["workloads"]]' "$root/BENCHMARK.json")
out="$root/build/benchmark/repeat"
rm -rf "$out"
mkdir -p "$out"

run() {  # workload seed trace
  local file="$out/$1_t$3_s$2.out"
  echo "repeat: $1 seed=$2 trace=$3" >&2
  bash "$here/run.sh" --workload "$1" --seed "$2" --seconds "$seconds" \
    --trace "$3" >"$file" 2>"$file.log" || {
    echo "repeat: $1 seed=$2 trace=$3 failed; see $file.log" >&2
    exit 1
  }
}

for ((i = 0; i < n; i++)); do
  seed=$((first_seed + i))
  order=("${workloads[@]}")
  if ((i % 2 == 1)); then
    order=()
    for ((j = ${#workloads[@]} - 1; j >= 0; j--)); do
      order+=("${workloads[j]}")
    done
  fi
  for w in "${order[@]}"; do run "$w" "$seed" 0; done
done
for w in "${workloads[@]}"; do run "$w" "$((first_seed + n))" 1; done

python3 "$here/check.py" --runs "$out"
