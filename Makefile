# Convenience targets for the xeonomp reproduction.

GO ?= go

.PHONY: build test test-short race race-conc fuzz bench bench-engine bench-cache bench-snapshot check ci check-golden update-golden figures figures-cached lmbench ablations profile fmt vet lint lint-conc server-smoke shard-smoke clean

build:
	$(GO) build ./...

test-short:
	$(GO) test -short ./...

# Full suite, including the integration shape studies (~5 minutes).
test:
	$(GO) test ./...

race:
	$(GO) test -race -short ./...

# Full (non-short) race pass over the concurrency-heavy packages the
# goleak/lockorder analyzers police statically; CI runs this leg in its
# test matrix. The race detector turns the full core suite's ~2 minutes
# into about 23 on a 2-vCPU host (the integration shape studies are
# memory-access-heavy, the detector's worst case), so the default 10m
# per-package test timeout is not enough.
race-conc:
	$(GO) test -race -timeout 40m ./internal/server/... ./internal/core/...

# Fuzz every target in the module for 10 s each. `go test -list` names
# each package's Fuzz* targets, and they run one at a time, because
# `go test -fuzz` takes a single target. A failing input is written
# under the package's testdata/fuzz/, where plain `go test` replays it.
fuzz:
	@pkgs=$$($(GO) list ./...) || exit 1; \
	for pkg in $$pkgs; do \
		targets=$$($(GO) test -list '^Fuzz' $$pkg) || exit 1; \
		for target in $$(echo "$$targets" | grep '^Fuzz'); do \
			echo "fuzz: $$pkg $$target"; \
			$(GO) test -run '^$$' -fuzz "^$$target\$$" -fuzztime 10s $$pkg || exit 1; \
		done; \
	done

# Every benchmark in the module, once: one per paper table/figure at the
# root (XEONOMP_BENCH_SCALE overrides the per-iteration workload scale),
# the engine microbenchmarks, and the codec and cache benchmarks. -run '^$$'
# keeps the unit-test suite from re-running before the benchmarks do.
bench:
	$(GO) test -run '^$$' -bench=. -benchmem -benchtime=1x ./...

# The cycle engine's microbenchmarks (stream generation, cache, TLB and
# branch-predictor operations, one cell per stepping shape), run once so
# that they keep compiling and running. For measurements, raise
# -benchtime and -count and compare commits with benchstat.
ENGINE_PKGS := ./internal/trace ./internal/cache ./internal/tlb ./internal/branch ./internal/machine
bench-engine:
	$(GO) test -run '^$$' -bench . -benchtime 1x $(ENGINE_PKGS)

# Static analysis: go vet plus the repo's seven analyzers (cmd/xeonlint —
# nondeterminism sources, dimension inference, unit safety, dropped
# errors, context flow, goroutine leaks, and lock ordering). go vet's
# copylocks check covers locks copied by value. The engine's hot path,
# the counter/golden-schema parity and nondeterministic flows into
# outputs are guarded by tests instead (TestCellAllocsFlat,
# TestFigure2ReadsEveryMetric, TestEventNames,
# TestEveryMetricNameIsRegistered, TestStudySerializationIsBitStable).
# Depends on build so vet and xeonlint share one warm build cache; -v
# prints per-analyzer wall time so lint-job runtime regressions show up
# in CI logs.
lint: build
	$(GO) vet ./...
	$(GO) run ./cmd/xeonlint -v ./...

# Just the concurrency suite — the heavier interprocedural passes — for a
# quick pre-push check of server/engine changes.
lint-conc: build
	$(GO) run ./cmd/xeonlint -v -only ctxflow,goleak,lockorder ./...

# The full gate: build, lint, formatting, and the race-enabled test suite.
# Core's full suite under the race detector outlasts the default 10m
# per-package timeout: it takes about 22 minutes on a 2-vCPU host.
check: lint
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	$(GO) test -race -timeout 90m ./...

# GOLDEN_SCALE is the reduced instruction-budget scale the checked-in
# testdata/golden artifacts were generated at; -check refuses to compare
# across scales, so the two targets below must agree.
GOLDEN_SCALE := 0.1

# The run cache under .xeonchar-cache is keyed by a hash of the Go sources
# (tracked and untracked), so any code change starts from a cold cache — a
# stale cached cell can never mask real metric drift. CI persists the same
# directory with the same keying (see .github/workflows/ci.yml).
SRC_HASH := $(shell git ls-files -co --exclude-standard -- '*.go' go.mod | xargs sha256sum 2>/dev/null | sha256sum | cut -c1-16)

# Runs the steps of .github/workflows/ci.yml's lint job and test matrix,
# so contributors can reproduce a CI failure locally with a bare
# `make ci`; the matrix runs this target, fuzz pass included. Three CI
# steps keep their own targets: race-conc (the full race pass over
# server and core), server-smoke and shard-smoke.
ci:
	$(MAKE) lint
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	$(GO) test -race -short ./...
	$(MAKE) bench-engine
	$(MAKE) check-golden
	$(MAKE) bench-snapshot
	$(MAKE) fuzz

# The paper-fidelity gate alone: rerun every study at the golden scale and
# diff against the checked-in artifacts with their tolerance bands. The
# metrics snapshot (cache hit rates, cell latencies, worker utilization)
# lands in golden-metrics.json; CI uploads it as a build artifact.
check-golden:
	$(GO) run ./cmd/xeonchar -check testdata/golden -scale $(GOLDEN_SCALE) \
		-cache-dir .xeonchar-cache/$(SRC_HASH) -progress 30s \
		-metrics-out golden-metrics.json

# Regenerate testdata/golden after an *intentional* metric change; commit
# the diff so review sees exactly which paper numbers moved.
update-golden:
	$(GO) run ./cmd/xeonchar -update-golden -scale $(GOLDEN_SCALE) \
		-cache-dir .xeonchar-cache/$(SRC_HASH) -progress 30s

# Cold-vs-warm study time through the run cache (see internal/runcache).
bench-cache:
	$(GO) test -run '^$$' -bench 'BenchmarkStudyCache(Cold|Warm)' -benchtime=3x -benchmem

# Raw-speed trajectory (see PERFORMANCE.md): measure simulator throughput
# on the fixed cmd/benchsnap grid, write the fresh measurement to
# bench-snapshot.json (CI uploads it as an artifact), and gate against the
# newest checked-in BENCH_*.json — a >20% total cells/s regression fails.
# To pin a new baseline after an intentional speed change:
#   go run ./cmd/benchsnap -reps 5 -out BENCH_$$(date +%Y%m%d).json -date $$(date +%Y-%m-%d)
BENCH_BASELINE := $(lastword $(sort $(wildcard BENCH_*.json)))
# -best 3 keeps the fastest of three full measurements before the gate:
# shared-runner noise only ever slows a run down, so the max is the
# honest throughput estimate and the gate stops tripping on scheduler
# weather instead of engine regressions.
bench-snapshot:
	$(GO) run ./cmd/benchsnap -reps 5 -best 3 -out bench-snapshot.json \
		$(if $(BENCH_BASELINE),-check $(BENCH_BASELINE))

# End-to-end smoke gate for the experiment server: build cmd/xeond and
# cmd/xeonctl, boot the daemon on loopback, run the single-program study
# over HTTP at the golden scale, byte-compare the served artifacts
# against testdata/golden, rerun it warm, and assert the /metrics cache
# counter covered every cell. Mirrors the server-smoke CI job.
server-smoke:
	GOLDEN_SCALE=$(GOLDEN_SCALE) bash scripts/server-smoke.sh

# End-to-end smoke gate for sharded execution: two worker daemons plus a
# sharding frontend serve the golden-scale study byte-identically, both
# workers receive cells, and a mid-study worker kill fails over to the
# survivor. Mirrors the shard-smoke CI job.
shard-smoke:
	GOLDEN_SCALE=$(GOLDEN_SCALE) bash scripts/shard-smoke.sh

# Regenerate every table and figure at full scale (~25 minutes cold; a
# warm rerun against the same cache directory is mostly lookups).
figures:
	$(GO) run ./cmd/xeonchar -all -scale 1.0

figures-cached:
	$(GO) run ./cmd/xeonchar -all -scale 1.0 -cache-dir .xeonchar-cache -journal .xeonchar-cache/run.jsonl -resume

# One observed full pass at reduced scale: CPU profile with per-cell
# pprof labels (slice with `go tool pprof -tagfocus benchmark=CG
# cpu.pprof`), a Chrome trace of study/cell spans (load trace.json in
# chrome://tracing or Perfetto), and the metric registry snapshot.
# To refresh the compiler's PGO profile, copy cpu.pprof over
# cmd/xeonchar/default.pgo. Nothing checks that profile against the
# source; a stale one costs compiler optimization only, never results.
profile:
	$(GO) run ./cmd/xeonchar -all -scale 0.1 \
		-cpuprofile cpu.pprof -trace-out trace.json -metrics-out metrics.json

lmbench:
	$(GO) run ./cmd/xeonchar -lmbench

ablations:
	$(GO) run ./cmd/xeonchar -ablation all -scale 0.5

fmt:
	gofmt -w .

vet:
	$(GO) vet ./...

clean:
	$(GO) clean ./...
