// Package obs is the self-measurement layer of the reproduction: the same
// discipline the paper applies to the simulated Xeon (VTune counters over
// every run, §4) applied to the simulator itself. It is zero-dependency —
// stdlib only — and cheap enough to leave compiled in everywhere.
//
// Three instruments share the package:
//
//   - a process-wide metric Registry of counters, gauges, and histograms
//     with fixed log2 buckets, snapshotted as diff-stable JSON
//     (cmd flags -metrics-out, Makefile `make profile`);
//   - lightweight span tracing — start/end pairs with parent links,
//     goroutine-safe, emitted as Chrome trace_event JSON loadable in
//     chrome://tracing and Perfetto (cmd flag -trace-out);
//   - pprof label plumbing, so CPU profiles attribute samples to the
//     (benchmark, configuration) cell being simulated.
//
// Every metric series is named by a Metric* constant in names.go;
// internal/shard's TestEveryMetricNameIsRegistered verifies each
// constant is registered, so a renamed metric can never silently stop
// being collected.
//
// obs is the only simulation-adjacent package allowed to read the wall
// clock (see the taint analyzer's allowlist): instrumented packages take
// timestamps through StartTimer/Span, and those values flow only into the
// registry and tracer, never into golden artifacts, rendered tables,
// journals, or the run cache. The analyzer does not follow the values;
// internal/core's TestStudySerializationIsBitStable and the golden gate
// fail if one reaches an artifact or a rendered table. Simulated time
// stays deterministic; obs measures real time.
package obs

import "time"

// Timer is an opaque wall-clock timestamp handed out to instrumented
// packages, which are themselves forbidden from reading the clock. The
// zero Timer reports zero elapsed time.
type Timer struct {
	start time.Time
}

// StartTimer reads the wall clock. Pair it with Histogram.ObserveSince or
// ElapsedNs.
func StartTimer() Timer { return Timer{start: time.Now()} }

// ElapsedNs returns wall nanoseconds since the timer started, never
// negative; zero for the zero Timer.
func (t Timer) ElapsedNs() int64 {
	if t.start.IsZero() {
		return 0
	}
	d := time.Since(t.start)
	if d < 0 {
		return 0
	}
	return int64(d)
}

// Rate returns n per wall second since the timer started, or 0 when no
// measurable time has elapsed — the machine layer's cycles-per-wall-second
// gauge. The quotient is computed here so instrumented packages never
// handle raw wall-clock durations.
func (t Timer) Rate(n int64) float64 {
	ns := t.ElapsedNs()
	if ns <= 0 {
		return 0
	}
	return float64(n) / (time.Duration(ns)).Seconds()
}

// Utilization returns busyNs / (workers x elapsed wall ns) — the fraction
// of the worker pool's capacity spent inside jobs since the timer started.
// Like Rate, the quotient lives here so callers never divide durations.
func (t Timer) Utilization(busyNs int64, workers int) float64 {
	ns := t.ElapsedNs()
	if ns <= 0 || workers <= 0 || busyNs <= 0 {
		return 0
	}
	return float64(busyNs) / (float64(ns) * float64(workers))
}
