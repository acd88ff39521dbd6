// Package xeonomp reproduces "A Comprehensive Analysis of OpenMP
// Applications on Dual-Core Intel Xeon SMPs" (Grant & Afsahi, IPPS 2007) as
// a Go library: a cycle-approximate simulator of a two-way dual-core
// Hyper-Threaded Xeon SMP, class-B architectural profiles of the NAS
// OpenMP benchmarks that drive it, and a characterization framework that
// regenerates every table and figure of the paper.
//
// See README.md for the tour, ARCHITECTURE.md for the module map and
// data flow, DESIGN.md for the system inventory and substitutions, and
// EXPERIMENTS.md for paper-vs-measured results. Long regenerations are
// cacheable and resumable through internal/runcache (content-addressed
// run cache) and internal/journal (JSONL run journal + progress), and
// every reproduced paper number is pinned as a golden artifact under
// testdata/golden via internal/golden (xeonchar -check is the CI drift
// gate). The benchmarks in bench_test.go regenerate each experiment:
//
//	go test -bench=. -benchmem
//
// The command-line entry points live under cmd/: xeonchar (all figures and
// tables, the Section 3 calibration and the design-choice ablations), the
// xeond/xeonctl experiment server, and the xeonlint and benchsnap tooling.
package xeonomp
