package lmbench

import (
	"xeonomp/internal/golden"
	"xeonomp/internal/units"
)

// Golden artifact names. "lmbench" pins the simulated Section-3
// measurements against themselves (tight band — catches machine-model
// drift); "lmbench-paper" pins them against the paper's published targets
// (wide band — catches calibration rot). Both are checked with the rest
// of the golden set by cmd/xeonchar -check.
const (
	GoldenName      = "lmbench"
	PaperGoldenName = "lmbench-paper"
)

// metricIDs in Result field order; frozen — golden artifacts key on them.
var metricIDs = []struct {
	id, unit string
	get      func(r Result) float64
}{
	{"l1_latency_ns", "ns", func(r Result) float64 { return r.L1Ns }},
	{"l2_latency_ns", "ns", func(r Result) float64 { return r.L2Ns }},
	{"mem_latency_ns", "ns", func(r Result) float64 { return r.MemNs }},
	{"read_bw_1chip_gbs", "GB/s", func(r Result) float64 { return r.ReadBW1 / units.GB }},
	{"write_bw_1chip_gbs", "GB/s", func(r Result) float64 { return r.WriteBW1 / units.GB }},
	{"read_bw_2chip_gbs", "GB/s", func(r Result) float64 { return r.ReadBW2 / units.GB }},
	{"write_bw_2chip_gbs", "GB/s", func(r Result) float64 { return r.WriteBW2 / units.GB }},
}

// Artifact serializes the measurements under the given artifact name.
// LMbench is scale-independent, so no scale/seed provenance is stamped.
func (r Result) Artifact(name string, tol golden.Tolerance) *golden.Artifact {
	a := golden.New(name, tol)
	a.Note = "Section 3 — simulated LMbench latencies and streaming bandwidths"
	for _, m := range metricIDs {
		a.AddUnit(m.id, m.get(r), m.unit)
	}
	return a
}

// PaperTargets returns the pinned artifact holding the paper's Section-3
// numbers from DESIGN §3 — L1 1.43 ns, L2 10.6 ns, memory 136.85 ns;
// 3.57/1.77 GB/s single-chip and 4.43/2.6 GB/s dual-chip read/write — with
// the calibration bands the test suite has always enforced (5% everywhere,
// 20% on dual-chip write, where write-combining on the real box beats the
// RFO+writeback model; see lmbench_test.go). -update-golden rewrites this
// file from these constants, never from a measurement: the paper is the
// source of truth.
func PaperTargets() *golden.Artifact {
	a := golden.New(PaperGoldenName, golden.Relative(0.05))
	a.Note = "paper targets from DESIGN §3; compared against live simulated measurements"
	a.Add("l1_latency_ns", 1.43)
	a.Add("l2_latency_ns", 10.6)
	a.Add("mem_latency_ns", 136.85)
	a.Add("read_bw_1chip_gbs", 3.57)
	a.Add("write_bw_1chip_gbs", 1.77)
	a.Add("read_bw_2chip_gbs", 4.43)
	a.AddTol("write_bw_2chip_gbs", 2.6, golden.Relative(0.20))
	return a
}
