#!/usr/bin/env bash
# Builds perfbench from this checkout's sources and runs it with the
# given arguments, from the root of the checkout:
#
#   bash _perfbench/run.sh --workload study-cold --seed 3 --seconds 15 --trace 0
#
# The Go build cache, the binary and every file the benchmark writes stay
# under .bench_build/ in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config" "$build/gopath"
# The go command's config, telemetry and module directories default to the
# home directory; point them into the checkout too.
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOFLAGS=-mod=mod
go -C _perfbench build -o "$build/perfbench-bin" . >&2
exec "$build/perfbench-bin" "$@"
