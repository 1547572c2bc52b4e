#!/usr/bin/env bash
# run_remote_smoke.sh — end-to-end smoke of the distributed store path, as
# run by the CI generic leg:
#
#   1. starts N build/seesaw_server processes in shard-serving mode
#      (--serve_store) on loopback ephemeral ports, each owning its
#      PartitionRange slice of the same deterministic table;
#   2. drives build/remote_parity_gate against them: RemoteStore children
#      over real TCP assembled into a ShardedStore, gated BITWISE against a
#      single local ExactStore rebuilt from the same (rows, dim, seed);
#   3. fails on any parity mismatch, connect failure, or scan error — the
#      gate exits non-zero and this script propagates it.
#
# The servers and the gate must agree on --store_rows/--dim/--store_seed:
# both ends rebuild the same table from those flags, which is what makes
# bitwise remote-vs-local parity checkable at all.
#
# Usage:
#   ./scripts/run_remote_smoke.sh [--shards N] [--rows N]
# Env: BUILD_DIR (default: <repo>/build), REMOTE_SMOKE_DIM/SEED.
set -euo pipefail

SCRIPT_DIR="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
REPO_ROOT="$(dirname "$SCRIPT_DIR")"
BUILD_DIR="${BUILD_DIR:-$REPO_ROOT/build}"

SHARDS=2
ROWS=2000
DIM="${REMOTE_SMOKE_DIM:-32}"
SEED="${REMOTE_SMOKE_SEED:-7}"
# The session service behind every server is tiny: store mode doesn't use
# it, so don't burn smoke time preprocessing a big one.
SCALE=0.02

while [[ $# -gt 0 ]]; do
    case "$1" in
        --shards)    SHARDS="$2"; shift 2 ;;
        --rows)      ROWS="$2"; shift 2 ;;
        *) echo "unknown option: $1" >&2; exit 2 ;;
    esac
done

build_target() {
    echo "building $1 ..." >&2
    cmake -B "$BUILD_DIR" -S "$REPO_ROOT" > /dev/null
    cmake --build "$BUILD_DIR" --target "$1" -j > /dev/null
}
[[ -x "$BUILD_DIR/seesaw_server" ]] || build_target seesaw_server
[[ -x "$BUILD_DIR/remote_parity_gate" ]] || build_target remote_parity_gate

SERVER_PIDS=()
SERVER_LOGS=()
cleanup() {
    for pid in "${SERVER_PIDS[@]}"; do
        if kill -0 "$pid" 2>/dev/null; then
            kill -TERM "$pid" 2>/dev/null || true
            wait "$pid" 2>/dev/null || true
        fi
    done
    rm -f "${SERVER_LOGS[@]}" 2>/dev/null || true
}
trap cleanup EXIT

echo "== starting $SHARDS shard servers (rows=$ROWS dim=$DIM) ==" >&2
for ((s = 0; s < SHARDS; ++s)); do
    log="$(mktemp)"
    SERVER_LOGS+=("$log")
    "$BUILD_DIR/seesaw_server" --port=0 --scale="$SCALE" --dim="$DIM" \
        --serve_store --shard_index="$s" --num_shards="$SHARDS" \
        --store_rows="$ROWS" --store_seed="$SEED" \
        > "$log" 2>&1 &
    SERVER_PIDS+=($!)
done

# Dataset generation happens before the bind; await every LISTENING line.
PORTS=()
for ((s = 0; s < SHARDS; ++s)); do
    port=""
    for _ in $(seq 1 1200); do
        port="$(awk '/^LISTENING /{print $2; exit}' "${SERVER_LOGS[$s]}")"
        [[ -n "$port" ]] && break
        if ! kill -0 "${SERVER_PIDS[$s]}" 2>/dev/null; then
            echo "shard server $s exited before listening:" >&2
            cat "${SERVER_LOGS[$s]}" >&2
            exit 1
        fi
        sleep 0.1
    done
    if [[ -z "$port" ]]; then
        echo "timed out waiting for shard server $s:" >&2
        cat "${SERVER_LOGS[$s]}" >&2
        exit 1
    fi
    PORTS+=("$port")
done

PORT_LIST="$(IFS=,; echo "${PORTS[*]}")"
echo "== shard servers up on ports $PORT_LIST; running parity gate ==" >&2

"$BUILD_DIR/remote_parity_gate" --ports="$PORT_LIST" \
    --store_rows="$ROWS" --dim="$DIM" --store_seed="$SEED"

echo "remote store smoke passed ($SHARDS shards)" >&2
