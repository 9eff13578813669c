#!/usr/bin/env bash
# Run a built-in fare-run plan as N shard processes and merge their record
# files into one plan-ordered display JSON — the multi-process counterpart of
# a single SimSession::run(). Shard partitioning is deterministic, so the
# merged output is bit-identical to a single-process run of the same plan
# (pass --canonical to zero the measured-time fields on both sides before
# diffing; see the CI shard-smoke job).
#
# Usage: scripts/shard_run.sh <plan> <num_shards> <out.json> [fare-run args…]
#   e.g. scripts/shard_run.sh smoke 2 merged.json --canonical --threads 2
#   A --cache-dir DIR argument is passed straight through to every shard:
#   concurrent processes share one cache directory safely (each appends to
#   its own cells.<pid>.<n>.jsonl segment under an advisory lock, and the
#   last process out folds the segments into cells.jsonl).
#   Relative paths (<out.json>, --cache-dir) resolve against the caller's
#   working directory.
#
# Environment:
#   FARE_RUN_BIN   path to the fare-run binary (default: the repository's
#                  build/fare-run)
set -euo pipefail

if [ "$#" -lt 3 ]; then
    echo "usage: $0 <plan> <num_shards> <out.json> [fare-run args...]" >&2
    exit 2
fi

PLAN=$1
SHARDS=$2
OUT=$3
shift 3
BIN="${FARE_RUN_BIN:-$(cd "$(dirname "$0")/.." && pwd)/build/fare-run}"

if [ ! -x "$BIN" ]; then
    echo "$0: fare-run binary not found at $BIN (set FARE_RUN_BIN)" >&2
    exit 2
fi

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

# One process per shard, in parallel — each runs only its deterministic
# slice of the plan's unique cells and records full-fidelity results.
pids=()
for ((i = 0; i < SHARDS; ++i)); do
    "$BIN" --plan "$PLAN" --shard "$i/$SHARDS" --quiet \
        --out "$TMP/shard_$i.jsonl" "$@" \
        >"$TMP/shard_$i.log" 2>&1 &
    pids+=($!)
done
failed=0
for i in "${!pids[@]}"; do
    if ! wait "${pids[$i]}"; then
        echo "$0: shard $i/$SHARDS failed:" >&2
        cat "$TMP/shard_$i.log" >&2
        failed=1
    fi
done
[ "$failed" -eq 0 ] || exit 1

# Forward --canonical (if the shards got it) to the merge step so both
# sides of a diff are canonicalised the same way.
MERGE_ARGS=()
for arg in "$@"; do
    [ "$arg" = "--canonical" ] && MERGE_ARGS+=(--canonical)
done
"$BIN" --merge "$OUT" "$TMP"/shard_*.jsonl ${MERGE_ARGS[@]+"${MERGE_ARGS[@]}"}
