#!/usr/bin/env bash
# run_bench_suite.sh — run the TopK latency suite across store sizes and
# batch sizes, collecting one CSV — or, with --json, machine-readable
# BENCH_*.json baselines (SIMD kernel throughput + TopK latency) that future
# PRs can diff perf against.
#
# Default sizes: 10k, 20k, 40k, 80k vectors.
#
# Usage:
#   ./scripts/run_bench_suite.sh [--sizes 10k,20k,...] [--warmup N] [--iters N]
#                                [--dim D] [--k K] [--threads T]
#                                [--batches 1,4,8,16] [--shards 1,2,4,8]
#                                [--out results.csv] [--json] [--out-dir DIR]
#
# The CSV columns are bench_topk_latency's (batched latency mean and
# p50/p95/p99 plus qps per backend, shard count and batch size) behind a
# leading n column.
#
# --json writes BENCH_simd.json (bench_simd_kernels: scalar vs dispatched
# kernel throughput across dims x batches), BENCH_topk.json
# (bench_topk_latency rows across --sizes, including one "sharded" row per
# --shards count — the shard-scaling curve), BENCH_prefetch.json
# (bench_prefetch_latency: per-backend/variant speculation hit rates —
# zero-shot and post-refit — plus perceived NextBatch latency, prefetch off
# vs on, parity-checked), BENCH_serving.json (bench_serving: open-loop TCP
# serving load — perceived latency percentiles, shed rate, and session churn
# at SERVING_SESSIONS concurrent think-time sessions) and BENCH_scale.json
# (via run_scale_suite.sh at SCALE_SIZES, default 1M: certified-scan
# latency percentiles at scale) into --out-dir (default: repo root) instead
# of emitting CSV. Every file's meta records the host and the commit
# (scripts/stamp_bench_meta.py).
set -euo pipefail

SCRIPT_DIR="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
REPO_ROOT="$(dirname "$SCRIPT_DIR")"
BUILD_DIR="${BUILD_DIR:-$REPO_ROOT/build}"
BENCH="$BUILD_DIR/bench_topk_latency"
BENCH_SIMD="$BUILD_DIR/bench_simd_kernels"
BENCH_PREFETCH="$BUILD_DIR/bench_prefetch_latency"
BENCH_SERVING="$BUILD_DIR/bench_serving"

# bench_serving knobs for the --json baseline: the open-loop TCP load run
# (BENCH_serving.json) at its committed shape — 1000 concurrent think-time
# sessions against a self-hosted SeeSawServer on loopback.
SERVING_SESSIONS="${SERVING_SESSIONS:-1000}"
SERVING_ROUNDS="${SERVING_ROUNDS:-3}"
SERVING_THINK_MS="${SERVING_THINK_MS:-50}"

# bench_prefetch_latency knobs for the --json baseline (kept modest: the
# bench sleeps real think time per inspected image).
PREFETCH_SCALE="${PREFETCH_SCALE:-0.15}"
PREFETCH_DIM="${PREFETCH_DIM:-64}"
PREFETCH_BATCH="${PREFETCH_BATCH:-8}"
PREFETCH_THINK_MS="${PREFETCH_THINK_MS:-10}"

WARMUP=1
ITERS=5
DIM=128
K=100
THREADS=0
BATCHES="1,4,8,16"
SHARDS="1,2,4,8"
OUT=""
JSON=0
OUT_DIR="$REPO_ROOT"
SIZES=(10000 20000 40000 80000)

parse_size_token() {
    local tok="$1"
    if [[ "$tok" =~ ^[0-9]+$ ]]; then
        printf "%s" "$tok"
        return 0
    fi
    if [[ "$tok" =~ ^([0-9]+)[mM]$ ]]; then
        printf "%s000000" "${BASH_REMATCH[1]}"
        return 0
    fi
    if [[ "$tok" =~ ^([0-9]+)[kK]$ ]]; then
        printf "%s000" "${BASH_REMATCH[1]}"
        return 0
    fi
    return 1
}

while [[ $# -gt 0 ]]; do
    case "$1" in
        --sizes)
            IFS=',' read -r -a raw_sizes <<< "$2"
            SIZES=()
            for token in "${raw_sizes[@]}"; do
                token="${token//[[:space:]]/}"
                [[ -z "$token" ]] && continue
                parsed="$(parse_size_token "$token")" || {
                    echo "error: invalid size token '$token' in --sizes" >&2
                    exit 1
                }
                SIZES+=("$parsed")
            done
            shift 2
            ;;
        --warmup)  WARMUP="$2"; shift 2 ;;
        --iters)   ITERS="$2"; shift 2 ;;
        --dim)     DIM="$2"; shift 2 ;;
        --k)       K="$2"; shift 2 ;;
        --threads) THREADS="$2"; shift 2 ;;
        --batches) BATCHES="$2"; shift 2 ;;
        --shards)  SHARDS="$2"; shift 2 ;;
        --out)     OUT="$2"; shift 2 ;;
        --json)    JSON=1; shift ;;
        --out-dir) OUT_DIR="$2"; shift 2 ;;
        *)
            echo "unknown option: $1" >&2
            exit 1
            ;;
    esac
done

build_target() {
    local target="$1"
    echo "building $target ..." >&2
    cmake -B "$BUILD_DIR" -S "$REPO_ROOT" > /dev/null
    cmake --build "$BUILD_DIR" --target "$target" -j > /dev/null
}

[[ -x "$BENCH" ]] || build_target bench_topk_latency

emit() {
    header_done=0
    for n in "${SIZES[@]}"; do
        echo "== n=$n dim=$DIM k=$K batches=$BATCHES ==" >&2
        "$BENCH" --csv --n="$n" --dim="$DIM" --k="$K" --warmup="$WARMUP" \
                 --iters="$ITERS" --threads="$THREADS" --batches="$BATCHES" \
                 --shards="$SHARDS" |
        while IFS= read -r line; do
            if [[ "$line" == backend,* ]]; then
                if [[ $header_done -eq 0 ]]; then
                    echo "n,$line"
                    header_done=1
                fi
                continue
            fi
            echo "$n,$line"
        done
        header_done=1
    done
}

stamp() { python3 "$SCRIPT_DIR/stamp_bench_meta.py" "$1"; }

emit_json() {
    [[ -x "$BENCH_SIMD" ]] || build_target bench_simd_kernels

    local simd_out="$OUT_DIR/BENCH_simd.json"
    local topk_out="$OUT_DIR/BENCH_topk.json"

    echo "== bench_simd_kernels ==" >&2
    "$BENCH_SIMD" --warmup="$WARMUP" --iters="$ITERS" --json > "$simd_out"
    stamp "$simd_out"
    echo "kernel JSON written to $simd_out" >&2

    local rows=""
    local tmp
    tmp="$(mktemp)"
    # EXIT, not RETURN: a set -e abort inside this function (e.g. the bench
    # crashing) exits the script without firing RETURN traps. ${tmp:-} keeps
    # the trap safe under set -u once the local goes out of scope.
    trap 'rm -f "${tmp:-}"' EXIT
    for n in "${SIZES[@]}"; do
        echo "== bench_topk_latency n=$n dim=$DIM k=$K ==" >&2
        # Direct redirection (not process substitution) so a bench crash —
        # e.g. a parity SEESAW_CHECK abort — fails the script instead of
        # silently truncating the committed baseline.
        "$BENCH" --json --n="$n" --dim="$DIM" --k="$K" \
                 --warmup="$WARMUP" --iters="$ITERS" \
                 --threads="$THREADS" --batches="$BATCHES" \
                 --shards="$SHARDS" > "$tmp"
        while IFS= read -r line; do
            [[ -z "$line" ]] && continue
            rows="${rows:+$rows,}$line"
        done < "$tmp"
    done
    printf '{"bench":"topk_latency","meta":{"dim":%s,"k":%s,"warmup":%s,"iters":%s,"threads":%s,"batches":"%s","shards":"%s"},"rows":[%s]}\n' \
        "$DIM" "$K" "$WARMUP" "$ITERS" "$THREADS" "$BATCHES" "$SHARDS" "$rows" \
        > "$topk_out"
    stamp "$topk_out"
    echo "topk JSON written to $topk_out" >&2

    [[ -x "$BENCH_PREFETCH" ]] || build_target bench_prefetch_latency
    local prefetch_out="$OUT_DIR/BENCH_prefetch.json"
    echo "== bench_prefetch_latency scale=$PREFETCH_SCALE think_ms=$PREFETCH_THINK_MS ==" >&2
    local prows=""
    # Same direct-redirection rationale as above: a parity SEESAW_CHECK
    # abort in the bench must fail the script, not truncate the baseline.
    "$BENCH_PREFETCH" --json --scale="$PREFETCH_SCALE" --dim="$PREFETCH_DIM" \
                      --batch="$PREFETCH_BATCH" \
                      --think_ms="$PREFETCH_THINK_MS" \
                      --threads="$THREADS" > "$tmp"
    while IFS= read -r line; do
        [[ -z "$line" ]] && continue
        prows="${prows:+$prows,}$line"
    done < "$tmp"
    printf '{"bench":"prefetch_latency","meta":{"scale":%s,"dim":%s,"batch":%s,"think_ms":%s,"threads":%s},"rows":[%s]}\n' \
        "$PREFETCH_SCALE" "$PREFETCH_DIM" "$PREFETCH_BATCH" \
        "$PREFETCH_THINK_MS" "$THREADS" "$prows" \
        > "$prefetch_out"
    stamp "$prefetch_out"
    echo "prefetch JSON written to $prefetch_out" >&2

    # Serving baseline (BENCH_serving.json): bench_serving emits the whole
    # JSON document itself, so this is a plain redirect — and the binary
    # exits nonzero on any protocol error or failed session, which under
    # set -e fails the suite instead of committing a broken baseline.
    [[ -x "$BENCH_SERVING" ]] || build_target bench_serving
    local serving_out="$OUT_DIR/BENCH_serving.json"
    echo "== bench_serving sessions=$SERVING_SESSIONS rounds=$SERVING_ROUNDS think_ms=$SERVING_THINK_MS ==" >&2
    "$BENCH_SERVING" --json --sessions="$SERVING_SESSIONS" \
                     --rounds="$SERVING_ROUNDS" \
                     --think_ms="$SERVING_THINK_MS" > "$serving_out"
    stamp "$serving_out"
    echo "serving JSON written to $serving_out" >&2

    # Scale baseline (BENCH_scale.json) delegates to run_scale_suite.sh.
    # SCALE_SIZES defaults to 1M here so the combined suite stays tractable;
    # run run_scale_suite.sh directly for the full 1M/4M/16M sweep.
    echo "== run_scale_suite.sh sizes=${SCALE_SIZES:-1M} ==" >&2
    "$SCRIPT_DIR/run_scale_suite.sh" --sizes "${SCALE_SIZES:-1M}" \
        --warmup "$WARMUP" --iters "$ITERS" --threads "$THREADS" \
        --out "$OUT_DIR/BENCH_scale.json"
}

if [[ "$JSON" == 1 ]]; then
    emit_json
elif [[ -n "$OUT" ]]; then
    emit | tee "$OUT" > /dev/null
    echo "CSV written to $OUT" >&2
else
    emit
fi
