#!/usr/bin/env bash
# End-to-end smoke gate for sharded execution (make shard-smoke, mirrored
# by the shard-smoke CI job): two worker daemons, one sharding frontend.
#
#   1. build cmd/xeond and cmd/xeonctl,
#   2. boot two worker xeond daemons on ephemeral loopback ports, then a
#      frontend xeond with -shard pointing at both,
#   3. submit the single-program study at the golden scale through the
#      frontend and byte-compare every downloaded artifact against
#      testdata/golden — sharding must not change a single byte,
#   4. assert the work actually scattered: both workers' /metrics show
#      simulated cells,
#   5. failover: boot a fresh cold fleet, start the same study again,
#      kill one worker mid-study, and require the study to finish on the
#      survivor with byte-identical artifacts and a non-zero
#      shard.failovers counter on the frontend,
#   6. shut everything down cleanly.
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
PIDS=()
cleanup() {
    for pid in "${PIDS[@]}"; do
        kill "$pid" 2>/dev/null || true
    done
    for pid in "${PIDS[@]}"; do
        wait "$pid" 2>/dev/null || true
    done
    if [ "$OWN_SMOKE_DIR" -eq 1 ]; then
        rm -rf "$SMOKE_DIR"
    fi
}
trap cleanup EXIT
mkdir -p "$SMOKE_DIR/journals1" "$SMOKE_DIR/journals2"

say() { echo "shard-smoke: $*"; }
fail() { say "FAIL: $*"; exit 1; }

say "building xeond and xeonctl into $SMOKE_DIR"
go build -o "$SMOKE_DIR/xeond" ./cmd/xeond
go build -o "$SMOKE_DIR/xeonctl" ./cmd/xeonctl

# boot <name> <extra flags...>: start one xeond, wait for its address
# file, and publish BOOTED_ADDR/BOOTED_PID.
boot() {
    local name=$1
    shift
    "$SMOKE_DIR/xeond" -addr 127.0.0.1:0 -addr-file "$SMOKE_DIR/$name.addr" \
        "$@" >"$SMOKE_DIR/$name.log" 2>&1 &
    BOOTED_PID=$!
    PIDS+=("$BOOTED_PID")
    for _ in $(seq 1 100); do
        [ -s "$SMOKE_DIR/$name.addr" ] && break
        kill -0 "$BOOTED_PID" 2>/dev/null || { cat "$SMOKE_DIR/$name.log"; fail "$name died during boot"; }
        sleep 0.1
    done
    [ -s "$SMOKE_DIR/$name.addr" ] || fail "$name never published its address"
    BOOTED_ADDR=$(cat "$SMOKE_DIR/$name.addr")
    say "$name is serving on $BOOTED_ADDR"
}

ctl() { local server=$1; shift; "$SMOKE_DIR/xeonctl" -server "http://$server" "$@"; }

# metric <addr> <name>: scrape one counter from a daemon's /metrics.
metric() {
    ctl "$1" metrics | grep -o "\"$2\": [0-9.]*" | awk '{print $2}'
}

boot worker1
WORKER1=$BOOTED_ADDR
boot worker2
WORKER2=$BOOTED_ADDR
boot frontend1 -journal-dir "$SMOKE_DIR/journals1" -shard "http://$WORKER1,http://$WORKER2"
FRONTEND1=$BOOTED_ADDR

say "run 1: single study at scale $GOLDEN_SCALE through the sharded frontend"
ctl "$FRONTEND1" study -name single -scale "$GOLDEN_SCALE" -q -out "$SMOKE_DIR/run1" >"$SMOKE_DIR/run1.json"

ARTIFACTS=0
for f in "$SMOKE_DIR"/run1/*.json; do
    name=$(basename "$f")
    [ -f "$GOLDEN_DIR/$name" ] || fail "no golden counterpart for artifact $name"
    cmp -s "$f" "$GOLDEN_DIR/$name" || fail "artifact $name from the sharded run differs from $GOLDEN_DIR/$name"
    say "artifact $name is byte-identical to its golden"
    ARTIFACTS=$((ARTIFACTS + 1))
done
[ "$ARTIFACTS" -ge 4 ] || fail "expected >= 4 artifacts, got $ARTIFACTS"

# The frontend must have scattered real work to both workers.
for w in "$WORKER1" "$WORKER2"; do
    COMPUTED=$(metric "$w" core.cells_computed)
    [ -n "$COMPUTED" ] || fail "worker $w /metrics has no core.cells_computed counter"
    awk -v c="$COMPUTED" 'BEGIN { exit !(c >= 1) }' \
        || fail "worker $w simulated no cells; the shard never scattered"
    say "worker $w simulated $COMPUTED cells"
done
SENT=$(metric "$FRONTEND1" shard.cells_sent)
say "frontend dispatched $SENT cells across 2 workers"

say "run 2: failover — fresh fleet, kill worker4 mid-study"
# Fresh workers so their caches are cold: the study takes real wall time
# again, leaving a wide window to kill a worker mid-flight.
boot worker3
WORKER3=$BOOTED_ADDR
boot worker4
WORKER4=$BOOTED_ADDR
WORKER4_PID=$BOOTED_PID
boot frontend2 -journal-dir "$SMOKE_DIR/journals2" -shard "http://$WORKER3,http://$WORKER4"
FRONTEND2=$BOOTED_ADDR

ctl "$FRONTEND2" study -name single -scale "$GOLDEN_SCALE" -q -out "$SMOKE_DIR/run2" >"$SMOKE_DIR/run2.json" &
CTL_PID=$!
# Wait until the study is demonstrably mid-flight (the frontend has
# dispatched a few cells — shard.cells_sent moves even when the workers
# serve from their warm caches), then kill worker2 hard.
KILLED=0
for _ in $(seq 1 300); do
    if ! kill -0 "$CTL_PID" 2>/dev/null; then
        break # study already finished: too fast to kill mid-study
    fi
    DONE=$(metric "$FRONTEND2" shard.cells_sent || true)
    if [ -n "$DONE" ] && awk -v d="$DONE" 'BEGIN { exit !(d >= 3) }'; then
        kill -9 "$WORKER4_PID" 2>/dev/null || true
        wait "$WORKER4_PID" 2>/dev/null || true # reap quietly
        KILLED=1
        say "killed worker4 ($WORKER4) after $DONE dispatched cells"
        break
    fi
    sleep 0.1
done
[ "$KILLED" -eq 1 ] || fail "study finished before worker4 could be killed mid-flight; lower the poll threshold"
wait "$CTL_PID" || { cat "$SMOKE_DIR/frontend2.log"; fail "study did not survive the worker kill"; }

for f in "$SMOKE_DIR"/run2/*.json; do
    name=$(basename "$f")
    cmp -s "$f" "$GOLDEN_DIR/$name" || fail "artifact $name after failover differs from $GOLDEN_DIR/$name"
done
FAILOVERS=$(metric "$FRONTEND2" shard.failovers)
[ -n "$FAILOVERS" ] || fail "frontend /metrics has no shard.failovers counter"
awk -v f="$FAILOVERS" 'BEGIN { exit !(f >= 1) }' \
    || fail "shard.failovers is $FAILOVERS after a mid-study worker kill"
say "failover artifacts byte-identical, shard.failovers=$FAILOVERS"

say "PASS: sharded run byte-identical to golden, both workers exercised, mid-study failover survived"
