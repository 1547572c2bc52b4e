#!/usr/bin/env bash
# run_scale_suite.sh — million-row scale sweep: bench_scale over --sizes x
# {float32, int8} x --shards with p50/p95/p99 latencies, wrapped into a
# machine-readable BENCH_scale.json baseline that future PRs can diff
# against.
#
# The bench binary itself enforces the two-tier parity contract at full
# scale before any timing is reported: int8 recall@k vs the fp32 scan must
# clear --min-recall (cross-family gate), and the forced-scalar int8 kernel
# must agree bitwise with the dispatched SIMD int8 kernel (within-family
# gate). A gate failure aborts the bench, which fails this script.
#
# Default sizes: 1M, 4M, 16M rows (bench_scale streams table generation
# through a temp file in --tmpdir, so peak memory is one fp32 table + one
# int8 table for the current size, not the sum of all sizes).
#
# Usage:
#   ./scripts/run_scale_suite.sh [--sizes 1M,4M,16M] [--dim D] [--k K]
#                                [--batch B] [--warmup N] [--iters N]
#                                [--threads T] [--shards 0,8]
#                                [--min-shard-rows N] [--centers N]
#                                [--min-recall F]
#                                [--tmpdir DIR] [--out BENCH_scale.json]
#                                [--gate] [--gate-min-speedup F]
#                                [--gate-min-rows-per-sec N]
#
# --gate additionally asserts (via python3) that every unsharded int8 scan
# row clears the speedup floor vs fp32 (default 1.5x — the CI smoke floor;
# the committed baseline on a VNNI/AVX2 host shows >2x) and an absolute
# throughput floor (default 2M rows/s, lax enough for shared CI runners but
# fatal for a scalar-dispatch or quadratic regression).
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
MIN_RECALL=0.99
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
        --min-recall)      MIN_RECALL="$2"; shift 2 ;;
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
             --centers="$CENTERS" \
             --min-recall="$MIN_RECALL" --tmpdir="$TMPDIR_ARG" > "$tmp"
    while IFS= read -r line; do
        [[ -z "$line" ]] && continue
        rows="${rows:+$rows,}$line"
    done < "$tmp"
done

printf '{"bench":"scale","meta":{"sizes":"%s","dim":%s,"k":%s,"batch":%s,"warmup":%s,"iters":%s,"threads":%s,"shards":"%s","min_shard_rows":%s,"min_recall":%s},"rows":[%s]}\n' \
    "$SIZES" "$DIM" "$K" "$BATCH" "$WARMUP" "$ITERS" "$THREADS" "$SHARDS" \
    "$MIN_SHARD_ROWS" "$MIN_RECALL" "$rows" > "$OUT"
echo "scale JSON written to $OUT" >&2

if [[ "$GATE" == 1 ]]; then
    GATE_MIN_SPEEDUP="$GATE_MIN_SPEEDUP" \
    GATE_MIN_ROWS_PER_SEC="$GATE_MIN_ROWS_PER_SEC" \
    MIN_RECALL="$MIN_RECALL" \
    python3 - "$OUT" <<'EOF'
import json, os, sys

doc = json.load(open(sys.argv[1]))
min_speedup = float(os.environ["GATE_MIN_SPEEDUP"])
min_rps = float(os.environ["GATE_MIN_ROWS_PER_SEC"])
min_recall = float(os.environ["MIN_RECALL"])

scans = [r for r in doc["rows"] if r["kind"] == "scan"]
int8 = [r for r in scans
        if r["precision"] == "int8" and r["requested_shards"] == 0]
assert int8, "no unsharded int8 scan rows in the baseline"
for r in int8:
    n = r["n"]
    print(f"n={n}: int8 p50={r['p50_ms']:.1f}ms "
          f"speedup={r['speedup_vs_fp32_p50']:.2f}x "
          f"rows/s={r['rows_per_sec']:.0f} recall={r['recall_at_k']:.4f}")
    assert r["speedup_vs_fp32_p50"] >= min_speedup, (
        f"n={n}: int8 speedup {r['speedup_vs_fp32_p50']:.2f}x "
        f"< floor {min_speedup}x")
    assert r["rows_per_sec"] >= min_rps, (
        f"n={n}: int8 throughput {r['rows_per_sec']:.0f} rows/s "
        f"< floor {min_rps:.0f}")
    assert r["recall_at_k"] >= min_recall, (
        f"n={n}: recall {r['recall_at_k']:.4f} < floor {min_recall}")
print("scale gate passed")
EOF
fi
