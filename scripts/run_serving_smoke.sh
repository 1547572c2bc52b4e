#!/usr/bin/env bash
# run_serving_smoke.sh — end-to-end smoke of the TCP serving path, as run by
# the CI generic leg:
#
#   1. starts build/seesaw_server on loopback (ephemeral port) and waits for
#      its "LISTENING <port>" line;
#   2. drives bench_serving --gate against it over --connect: the gate
#      replays the managed in-process benchmark over the wire and fails on
#      any parity mismatch, protocol error, or shed at this low load;
#   3. writes the gate's JSON (perceived-latency percentiles, shed rate,
#      churn) to --out (default: BENCH_serving.json in the repo root — in CI
#      that is the uploaded artifact, locally it overwrites the committed
#      baseline only if you point it there), stamped with the host and the
#      commit by scripts/stamp_bench_meta.py.
#
# The server and the bench must agree on --scale/--dim: both generate the
# same deterministic dataset, which is what makes wire-vs-in-process parity
# checkable at all.
#
# Usage:
#   ./scripts/run_serving_smoke.sh [--sessions N] [--rounds N] [--out FILE]
# Env: BUILD_DIR (default: <repo>/build), SERVING_SMOKE_SCALE/DIM.
set -euo pipefail

SCRIPT_DIR="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
REPO_ROOT="$(dirname "$SCRIPT_DIR")"
BUILD_DIR="${BUILD_DIR:-$REPO_ROOT/build}"

SESSIONS=64
ROUNDS=3
SCALE="${SERVING_SMOKE_SCALE:-0.05}"
DIM="${SERVING_SMOKE_DIM:-32}"
OUT="$REPO_ROOT/BENCH_serving.json"

while [[ $# -gt 0 ]]; do
    case "$1" in
        --sessions) SESSIONS="$2"; shift 2 ;;
        --rounds)   ROUNDS="$2"; shift 2 ;;
        --out)      OUT="$2"; shift 2 ;;
        *) echo "unknown option: $1" >&2; exit 2 ;;
    esac
done

build_target() {
    echo "building $1 ..." >&2
    cmake -B "$BUILD_DIR" -S "$REPO_ROOT" > /dev/null
    cmake --build "$BUILD_DIR" --target "$1" -j > /dev/null
}
[[ -x "$BUILD_DIR/seesaw_server" ]] || build_target seesaw_server
[[ -x "$BUILD_DIR/bench_serving" ]] || build_target bench_serving

SERVER_LOG="$(mktemp)"
SERVER_PID=""
cleanup() {
    if [[ -n "$SERVER_PID" ]] && kill -0 "$SERVER_PID" 2>/dev/null; then
        kill -TERM "$SERVER_PID" 2>/dev/null || true
        wait "$SERVER_PID" 2>/dev/null || true
    fi
    rm -f "${SERVER_LOG:-}"
}
trap cleanup EXIT

echo "== starting seesaw_server (scale=$SCALE dim=$DIM) ==" >&2
"$BUILD_DIR/seesaw_server" --port=0 --scale="$SCALE" --dim="$DIM" \
    > "$SERVER_LOG" 2>&1 &
SERVER_PID=$!

# Dataset generation + preprocessing happens before the bind; allow time.
PORT=""
for _ in $(seq 1 1200); do
    PORT="$(awk '/^LISTENING /{print $2; exit}' "$SERVER_LOG")"
    [[ -n "$PORT" ]] && break
    if ! kill -0 "$SERVER_PID" 2>/dev/null; then
        echo "seesaw_server exited before listening:" >&2
        cat "$SERVER_LOG" >&2
        exit 1
    fi
    sleep 0.1
done
if [[ -z "$PORT" ]]; then
    echo "timed out waiting for LISTENING line:" >&2
    cat "$SERVER_LOG" >&2
    exit 1
fi
echo "== server up on 127.0.0.1:$PORT; running gate ==" >&2

"$BUILD_DIR/bench_serving" --gate --json \
    --sessions="$SESSIONS" --rounds="$ROUNDS" \
    --scale="$SCALE" --dim="$DIM" \
    --connect="127.0.0.1:$PORT" > "$OUT"
python3 "$SCRIPT_DIR/stamp_bench_meta.py" "$OUT"

echo "serving gate passed; JSON written to $OUT" >&2
