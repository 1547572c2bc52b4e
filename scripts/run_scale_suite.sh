#!/usr/bin/env bash
# run_scale_suite.sh — million-row scale sweep: bench_scale over --sizes x
# --shards with p50/p95/p99 latencies of the store's one scan (the certified
# int8 scan), wrapped into a machine-readable BENCH_scale.json baseline that
# future PRs can diff against. `meta` records the host (CPU model, nproc)
# and the commit the numbers came from (scripts/stamp_bench_meta.py); each
# scan row names the dispatched kernel.
#
# The bench binary itself enforces the contracts at full scale before any
# timing is reported: every scan must be bitwise equal to the bench's own
# fp32 brute-force scan, and the forced-scalar int8 kernel must agree
# bitwise with the dispatched SIMD int8 kernel. A gate failure aborts the
# bench, which fails this script.
#
# Default sizes: 1M, 4M, 16M rows (bench_scale streams table generation
# through a temp file in --tmpdir, so peak memory is one fp32 table + its
# int8 copy for the current size, not the sum of all sizes).
#
# Usage:
#   ./scripts/run_scale_suite.sh [--sizes 1M,4M,16M] [--dim D] [--k K]
#                                [--batch B] [--warmup N] [--iters N]
#                                [--threads T] [--shards 0,8]
#                                [--min-shard-rows N] [--centers N]
#                                [--tmpdir DIR] [--out BENCH_scale.json]
#                                [--gate] [--gate-min-speedup F]
#                                [--gate-min-rows-per-sec N]
#
# --gate additionally asserts (via python3) that every unsharded scan row
# clears a speedup floor vs the fp32 brute-force scan (default 1.5x) and an
# absolute throughput floor (default 2M rows/s, lax enough for shared CI
# runners but fatal for a scalar-dispatch, rescore-everything or quadratic
# regression).
set -euo pipefail

SCRIPT_DIR="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
REPO_ROOT="$(dirname "$SCRIPT_DIR")"
BUILD_DIR="${BUILD_DIR:-$REPO_ROOT/build}"
BENCH="$BUILD_DIR/bench_scale"

SIZES="1M,4M,16M"
DIM=128
K=100
BATCH=8
WARMUP=1
ITERS=5
THREADS=0
SHARDS="0,8"
MIN_SHARD_ROWS=4096
CENTERS=0
TMPDIR_ARG="${TMPDIR:-/tmp}"
OUT="$REPO_ROOT/BENCH_scale.json"
GATE=0
GATE_MIN_SPEEDUP=1.5
GATE_MIN_ROWS_PER_SEC=2000000

while [[ $# -gt 0 ]]; do
    case "$1" in
        --sizes)           SIZES="$2"; shift 2 ;;
        --dim)             DIM="$2"; shift 2 ;;
        --k)               K="$2"; shift 2 ;;
        --batch)           BATCH="$2"; shift 2 ;;
        --warmup)          WARMUP="$2"; shift 2 ;;
        --iters)           ITERS="$2"; shift 2 ;;
        --threads)         THREADS="$2"; shift 2 ;;
        --shards)          SHARDS="$2"; shift 2 ;;
        --min-shard-rows)  MIN_SHARD_ROWS="$2"; shift 2 ;;
        --centers)         CENTERS="$2"; shift 2 ;;
        --tmpdir)          TMPDIR_ARG="$2"; shift 2 ;;
        --out)             OUT="$2"; shift 2 ;;
        --gate)            GATE=1; shift ;;
        --gate-min-speedup)      GATE_MIN_SPEEDUP="$2"; shift 2 ;;
        --gate-min-rows-per-sec) GATE_MIN_ROWS_PER_SEC="$2"; shift 2 ;;
        *)
            echo "unknown option: $1" >&2
            exit 1
            ;;
    esac
done

if [[ ! -x "$BENCH" ]]; then
    echo "building bench_scale ..." >&2
    cmake -B "$BUILD_DIR" -S "$REPO_ROOT" > /dev/null
    cmake --build "$BUILD_DIR" --target bench_scale -j > /dev/null
fi

tmp="$(mktemp)"
trap 'rm -f "${tmp:-}"' EXIT

# One bench process per size: a multi-hour 16M run inherits none of the
# allocator/hugepage state the smaller sizes left behind (big freed tables
# fragment the heap and skew timings), and an abort at one size fails the
# script before it can truncate the baseline (direct redirection, not a
# pipe, for the same reason).
rows=""
IFS=',' read -r -a size_tokens <<< "$SIZES"
for size in "${size_tokens[@]}"; do
    size="${size//[[:space:]]/}"
    [[ -z "$size" ]] && continue
    echo "== bench_scale n=$size dim=$DIM k=$K batch=$BATCH shards=$SHARDS ==" >&2
    "$BENCH" --json --sizes="$size" --dim="$DIM" --k="$K" --batch="$BATCH" \
             --warmup="$WARMUP" --iters="$ITERS" --threads="$THREADS" \
             --shards="$SHARDS" --min-shard-rows="$MIN_SHARD_ROWS" \
             --centers="$CENTERS" --tmpdir="$TMPDIR_ARG" > "$tmp"
    while IFS= read -r line; do
        [[ -z "$line" ]] && continue
        rows="${rows:+$rows,}$line"
    done < "$tmp"
done

printf '{"bench":"scale","meta":{"sizes":"%s","dim":%s,"k":%s,"batch":%s,"warmup":%s,"iters":%s,"threads":%s,"shards":"%s","min_shard_rows":%s},"rows":[%s]}\n' \
    "$SIZES" "$DIM" "$K" "$BATCH" "$WARMUP" "$ITERS" "$THREADS" "$SHARDS" \
    "$MIN_SHARD_ROWS" "$rows" > "$OUT"
python3 "$SCRIPT_DIR/stamp_bench_meta.py" "$OUT"
echo "scale JSON written to $OUT" >&2

if [[ "$GATE" == 1 ]]; then
    GATE_MIN_SPEEDUP="$GATE_MIN_SPEEDUP" \
    GATE_MIN_ROWS_PER_SEC="$GATE_MIN_ROWS_PER_SEC" \
    python3 - "$OUT" <<'EOF'
import json, os, sys

doc = json.load(open(sys.argv[1]))
min_speedup = float(os.environ["GATE_MIN_SPEEDUP"])
min_rps = float(os.environ["GATE_MIN_ROWS_PER_SEC"])

scans = [r for r in doc["rows"]
         if r["kind"] == "scan" and r["requested_shards"] == 0]
assert scans, "no unsharded scan rows in the baseline"
for r in scans:
    n = r["n"]
    print(f"n={n}: p50={r['p50_ms']:.1f}ms "
          f"speedup={r['speedup_vs_bruteforce_p50']:.2f}x "
          f"rows/s={r['rows_per_sec']:.0f} "
          f"rescored/query={r['rescored_per_query']:.0f}")
    assert r["speedup_vs_bruteforce_p50"] >= min_speedup, (
        f"n={n}: speedup vs brute force "
        f"{r['speedup_vs_bruteforce_p50']:.2f}x < floor {min_speedup}x")
    assert r["rows_per_sec"] >= min_rps, (
        f"n={n}: throughput {r['rows_per_sec']:.0f} rows/s "
        f"< floor {min_rps:.0f}")
print("scale gate passed")
EOF
fi
