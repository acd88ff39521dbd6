#!/usr/bin/env bash
# End-to-end smoke gate for the experiment server (make server-smoke,
# mirrored by the server-smoke CI job):
#
#   1. build cmd/xeond and cmd/xeonctl,
#   2. boot the daemon on an ephemeral loopback port,
#   3. submit the single-program study at the golden scale through the
#      client and byte-compare every downloaded artifact against
#      testdata/golden — the remote-equivalence contract,
#   4. submit the identical study again and require the rerun to be
#      served entirely from cache (byte-identical artifacts, and the
#      /metrics core.cells_cached counter covering every cell),
#   5. shut the daemon down cleanly.
#
# Scale and seed must match how testdata/golden was generated (see
# GOLDEN_SCALE in the Makefile): the goldens are at scale 0.1, seed 1 —
# exactly the server-side defaults for seed, so only the scale is passed.
set -euo pipefail
cd "$(dirname "$0")/.."

GOLDEN_DIR=testdata/golden
GOLDEN_SCALE=${GOLDEN_SCALE:-0.1}
# A caller-given SMOKE_DIR holds the outputs the caller asked for (the
# CI job uploads from it) and is kept; a directory made here is scratch
# and is removed on exit.
OWN_SMOKE_DIR=0
if [ -z "${SMOKE_DIR:-}" ]; then
    SMOKE_DIR=$(mktemp -d)
    OWN_SMOKE_DIR=1
fi
XEOND_PID=
cleanup() {
    if [ -n "$XEOND_PID" ]; then
        kill "$XEOND_PID" 2>/dev/null || true
        wait "$XEOND_PID" 2>/dev/null || true
    fi
    if [ "$OWN_SMOKE_DIR" -eq 1 ]; then
        rm -rf "$SMOKE_DIR"
    fi
}
trap cleanup EXIT
mkdir -p "$SMOKE_DIR/journals"

say() { echo "server-smoke: $*"; }
fail() { say "FAIL: $*"; exit 1; }

say "building xeond and xeonctl into $SMOKE_DIR"
go build -o "$SMOKE_DIR/xeond" ./cmd/xeond
go build -o "$SMOKE_DIR/xeonctl" ./cmd/xeonctl

"$SMOKE_DIR/xeond" -addr 127.0.0.1:0 -addr-file "$SMOKE_DIR/addr" \
    -journal-dir "$SMOKE_DIR/journals" >"$SMOKE_DIR/xeond.log" 2>&1 &
XEOND_PID=$!

for _ in $(seq 1 100); do
    [ -s "$SMOKE_DIR/addr" ] && break
    kill -0 "$XEOND_PID" 2>/dev/null || { cat "$SMOKE_DIR/xeond.log"; fail "xeond died during boot"; }
    sleep 0.1
done
[ -s "$SMOKE_DIR/addr" ] || fail "xeond never published its address"
ADDR=$(cat "$SMOKE_DIR/addr")
SERVER="http://$ADDR"
say "xeond is serving on $ADDR"

ctl() { "$SMOKE_DIR/xeonctl" -server "$SERVER" "$@"; }

say "run 1: single study at scale $GOLDEN_SCALE over HTTP"
ctl study -name single -scale "$GOLDEN_SCALE" -q -out "$SMOKE_DIR/run1" >"$SMOKE_DIR/run1.json"

ARTIFACTS=0
for f in "$SMOKE_DIR"/run1/*.json; do
    name=$(basename "$f")
    [ -f "$GOLDEN_DIR/$name" ] || fail "no golden counterpart for artifact $name"
    cmp -s "$f" "$GOLDEN_DIR/$name" || fail "artifact $name served over HTTP differs from $GOLDEN_DIR/$name"
    say "artifact $name is byte-identical to its golden"
    ARTIFACTS=$((ARTIFACTS + 1))
done
[ "$ARTIFACTS" -ge 4 ] || fail "expected >= 4 artifacts, got $ARTIFACTS"

say "run 2: identical study again (must be served from cache)"
ctl study -name single -scale "$GOLDEN_SCALE" -q -out "$SMOKE_DIR/run2" >"$SMOKE_DIR/run2.json"
for f in "$SMOKE_DIR"/run1/*.json; do
    name=$(basename "$f")
    cmp -s "$f" "$SMOKE_DIR/run2/$name" || fail "rerun artifact $name differs from run 1"
done

# The study expands to a fixed number of cells; the rerun must have been
# served entirely without simulation, visible as core.cells_cached in the
# daemon's own /metrics covering at least every cell of one run.
CELLS=$(grep -o '"cells": [0-9]*' "$SMOKE_DIR/run1.json" | head -1 | awk '{print $2}')
[ -n "$CELLS" ] && [ "$CELLS" -gt 0 ] || fail "could not read the study's cell count from run1.json"
ctl metrics >"$SMOKE_DIR/metrics.json"
CACHED=$(grep -o '"core.cells_cached": [0-9.]*' "$SMOKE_DIR/metrics.json" | awk '{print $2}')
[ -n "$CACHED" ] || fail "/metrics has no core.cells_cached counter"
awk -v cached="$CACHED" -v cells="$CELLS" 'BEGIN { exit !(cached >= cells) }' \
    || fail "core.cells_cached is $CACHED after a warm rerun of $CELLS cells"
say "cache hit counter: core.cells_cached=$CACHED covers the $CELLS-cell rerun"

say "PASS: byte-identical artifacts, fully cached rerun ($ARTIFACTS artifacts, $CELLS cells)"
