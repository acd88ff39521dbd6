// Package profiles defines the class-B architectural profiles of the NAS
// OpenMP benchmarks used to drive the timing simulator. Each Profile is a
// compact description of a benchmark's behaviour — instruction mix, working
// sets, access patterns, branch structure, code footprint, and parallel-loop
// granularity. The fields are calibrated, not derived from running code:
// they are tuned until the studies land in the paper-shape bands (DESIGN.md
// sections 1 and 7, TestPaperShapes) and kept consistent with published NPB
// class-B characterization data.
//
// The profiles are where the paper's per-benchmark personalities live:
//
//   - EP: embarrassingly parallel, tiny working set, compute bound.
//   - CG: sparse conjugate gradient; large irregular working set, the
//     memory-bound benchmark of the paper's multi-program study and the one
//     benchmark that profits from HT on the fully-loaded machine.
//   - MG: multigrid; streaming with mixed strides, prefetch friendly.
//   - FT: 3-D FFT; compute heavy with page-crossing transpose strides
//     ("requires mostly computational resources", per the paper).
//   - IS: integer sort; data-dependent branch patterns that a private
//     predictor learns but interleaved Hyper-Threaded histories destroy —
//     the paper's branch-prediction outlier.
//   - LU/SP/BT: pseudo-applications; moderately memory bound with a
//     pipelined-wavefront imbalance component for LU.
package profiles

import (
	"fmt"
	"sort"

	"xeonomp/internal/mem"
	"xeonomp/internal/sched"
	"xeonomp/internal/trace"
	"xeonomp/internal/units"
)

// Profile is one benchmark's architectural description at a given class.
type Profile struct {
	Name  string // canonical upper-case benchmark name ("CG")
	Class string // NPB class the geometry corresponds to

	Params trace.Params

	CodeBytes   uint64 // total code region (cold jumps range over this)
	SharedBytes uint64 // class-B shared working set
	PrivBytes   uint64 // per-thread private region (hot + warm + stream area)

	// SerialInstr is the instruction budget of a serial run at scale 1.0;
	// parallel runs split it across threads.
	SerialInstr int64
}

// Validate checks profile consistency.
func (p Profile) Validate() error {
	if p.Name == "" || p.SerialInstr <= 0 {
		return fmt.Errorf("profiles: incomplete profile %+v", p)
	}
	if p.PrivBytes < p.Params.HotBytes+p.Params.WarmBytes {
		return fmt.Errorf("profiles %s: private region %d smaller than hot+warm %d",
			p.Name, p.PrivBytes, p.Params.HotBytes+p.Params.WarmBytes)
	}
	return p.Params.Validate()
}

// Demand estimates the profile's appetite for the platform's two scarce
// shared resources, for symbiosis-aware scheduling: the single-thread
// off-chip bandwidth (from the miss-generating pattern fractions at a
// nominal instruction rate) and the per-thread L2 warm footprint.
func (p Profile) Demand() sched.ProgramDemand {
	t := p.Params
	memOps := t.LoadFrac + t.StoreFrac
	// Line fetches per memory operation: random and strided accesses miss
	// per access, sequential ones once per line.
	missFrac := t.RandFrac + t.StrideFrac + t.SeqFrac/8
	const nominalInstrPerSec = 7e8 // ~CPI 4 at 2.8 GHz
	bw := memOps * missFrac * 64 * nominalInstrPerSec
	stride := t.WarmStride
	if stride == 0 {
		stride = 192
	}
	var foot uint64
	if t.WarmFrac > 0 && stride > 0 {
		foot = t.WarmBytes / stride * 64
	}
	return sched.ProgramDemand{Bandwidth: bw, CacheFootprint: foot}
}

// Layout builds the address space for one instance of the benchmark run
// with the given thread count. asid distinguishes co-scheduled programs.
func (p Profile) Layout(asid uint64, threads int) (*mem.Layout, error) {
	return mem.NewLayout(asid, threads, p.CodeBytes, p.SharedBytes, p.PrivBytes)
}

// Program prepares the streams of one run of the benchmark with the given
// thread count and work scale; its threads share one code-site table (see
// trace.Program). The per-thread chunk length shrinks with the thread
// count, as OpenMP static scheduling divides each parallel loop.
func (p Profile) Program(layout *mem.Layout, threads int, scale float64, seed uint64) (*trace.Program, error) {
	if threads <= 0 {
		return nil, fmt.Errorf("profiles %s: threads %d", p.Name, threads)
	}
	if scale <= 0 {
		return nil, fmt.Errorf("profiles %s: scale %g", p.Name, scale)
	}
	params := p.Params
	params.ChunkInstr = params.ChunkInstr / int64(threads)
	if params.ChunkInstr < 64 {
		params.ChunkInstr = 64
	}
	budget := int64(float64(p.SerialInstr) * scale / float64(threads))
	if budget < 1 {
		budget = 1
	}
	return trace.NewProgram(params, layout, budget, seed)
}

// Generator builds thread tid's stream for a run with the given thread
// count and work scale: Program and Thread in one call.
func (p Profile) Generator(layout *mem.Layout, tid, threads int, scale float64, seed uint64) (*trace.Generator, error) {
	prog, err := p.Program(layout, threads, scale, seed)
	if err != nil {
		return nil, err
	}
	return prog.Thread(tid)
}

const (
	kib = uint64(units.KiB)
	mib = uint64(units.MiB)
)

// table is the profile registry. All pattern fractions are over memory
// operations; mix fractions are over instructions.
var table = map[string]Profile{
	"EP": {
		Name: "EP", Class: "B",
		Params: trace.Params{
			LoadFrac: 0.16, StoreFrac: 0.05, BranchFrac: 0.13,
			HotFrac: 0.985, WarmFrac: 0.01, SeqFrac: 0.005,
			HotBytes: 6 * kib, WarmBytes: 64 * kib, WarmStride: 64,
			SharedFrac: 0.02,
			LoopLen:    28, DataBranchFrac: 0.06, DataEntropy: 0.25,
			CodeHotBytes: 6 * kib, CodeJumpProb: 0.0002,
			ChunkInstr: 500_000, ImbalancePct: 0.01,
			MLP: 0.30, DepProb: 0.28,
		},
		CodeBytes: 48 * kib, SharedBytes: 2 * mib, PrivBytes: 1 * mib,
		SerialInstr: 10_000_000,
	},
	"CG": {
		Name: "CG", Class: "B",
		Params: trace.Params{
			LoadFrac: 0.35, StoreFrac: 0.11, BranchFrac: 0.10,
			HotFrac: 0.944, WarmFrac: 0.020, SeqFrac: 0.012, StrideFrac: 0.004, RandFrac: 0.020,
			HotBytes: 6 * kib, WarmBytes: 672 * kib, WarmStride: 192, StrideBytes: 128,
			SharedFrac: 0.90,
			LoopLen:    28, DataBranchFrac: 0.04, DataEntropy: 0.30,
			CodeHotBytes: 8 * kib, CodeJumpProb: 0.0005,
			ChunkInstr: 600_000, ImbalancePct: 0.03,
			MLP: 0.40, DepProb: 0.18,
		},
		CodeBytes: 64 * kib, SharedBytes: 320 * mib, PrivBytes: 4 * mib,
		SerialInstr: 12_000_000,
	},
	"MG": {
		Name: "MG", Class: "B",
		Params: trace.Params{
			LoadFrac: 0.33, StoreFrac: 0.12, BranchFrac: 0.09,
			HotFrac: 0.878, WarmFrac: 0.027, SeqFrac: 0.070, StrideFrac: 0.015, RandFrac: 0.010,
			HotBytes: 6 * kib, WarmBytes: 1344 * kib, WarmStride: 192, StrideBytes: 128,
			SharedFrac: 0.85,
			LoopLen:    192, DataBranchFrac: 0.03, DataEntropy: 0.25,
			CodeHotBytes: 18 * kib, CodeJumpProb: 0.0008,
			ChunkInstr: 450_000, ImbalancePct: 0.04,
			MLP: 0.68, DepProb: 0.22,
		},
		CodeBytes: 96 * kib, SharedBytes: 440 * mib, PrivBytes: 4 * mib,
		SerialInstr: 12_000_000,
	},
	"FT": {
		Name: "FT", Class: "B",
		Params: trace.Params{
			LoadFrac: 0.27, StoreFrac: 0.10, BranchFrac: 0.09,
			HotFrac: 0.912, WarmFrac: 0.033, SeqFrac: 0.030, StrideFrac: 0.015, RandFrac: 0.010,
			HotBytes: 6 * kib, WarmBytes: 1152 * kib, WarmStride: 192, StrideBytes: 4096,
			SharedFrac: 0.85,
			LoopLen:    160, DataBranchFrac: 0.02, DataEntropy: 0.20,
			CodeHotBytes: 12 * kib, CodeJumpProb: 0.0006,
			ChunkInstr: 700_000, ImbalancePct: 0.02,
			MLP: 0.55, DepProb: 0.34,
		},
		CodeBytes: 80 * kib, SharedBytes: 720 * mib, PrivBytes: 4 * mib,
		SerialInstr: 13_000_000,
	},
	"IS": {
		Name: "IS", Class: "B",
		Params: trace.Params{
			LoadFrac: 0.30, StoreFrac: 0.16, BranchFrac: 0.16,
			HotFrac: 0.903, WarmFrac: 0.027, SeqFrac: 0.050, RandFrac: 0.020,
			HotBytes: 6 * kib, WarmBytes: 1380 * kib, WarmStride: 192,
			SharedFrac: 0.92,
			LoopLen:    22, DataBranchFrac: 0.60,
			DataPattern:  0x9249249249249249, // period-3 "100" pattern, learnable alone
			DataEntropy:  0.02,
			CodeHotBytes: 5 * kib, CodeJumpProb: 0.0003,
			ChunkInstr: 400_000, ImbalancePct: 0.05,
			MLP: 0.55, DepProb: 0.15,
		},
		CodeBytes: 32 * kib, SharedBytes: 160 * mib, PrivBytes: 4 * mib,
		SerialInstr: 10_000_000,
	},
	"LU": {
		Name: "LU", Class: "B",
		Params: trace.Params{
			LoadFrac: 0.30, StoreFrac: 0.10, BranchFrac: 0.10,
			HotFrac: 0.902, WarmFrac: 0.028, SeqFrac: 0.055, StrideFrac: 0.005, RandFrac: 0.010,
			HotBytes: 6 * kib, WarmBytes: 1344 * kib, WarmStride: 192, StrideBytes: 128,
			SharedFrac: 0.80,
			LoopLen:    384, DataBranchFrac: 0.05, DataEntropy: 0.25,
			CodeHotBytes: 24 * kib, CodeJumpProb: 0.0012,
			ChunkInstr: 300_000, ImbalancePct: 0.08,
			MLP: 0.55, DepProb: 0.26,
		},
		CodeBytes: 448 * kib, SharedBytes: 180 * mib, PrivBytes: 4 * mib,
		SerialInstr: 14_000_000,
	},
	"SP": {
		Name: "SP", Class: "B",
		Params: trace.Params{
			LoadFrac: 0.32, StoreFrac: 0.12, BranchFrac: 0.08,
			HotFrac: 0.888, WarmFrac: 0.027, SeqFrac: 0.065, StrideFrac: 0.012, RandFrac: 0.008,
			HotBytes: 6 * kib, WarmBytes: 1344 * kib, WarmStride: 192, StrideBytes: 128,
			SharedFrac: 0.85,
			LoopLen:    320, DataBranchFrac: 0.03, DataEntropy: 0.25,
			CodeHotBytes: 20 * kib, CodeJumpProb: 0.0010,
			ChunkInstr: 400_000, ImbalancePct: 0.05,
			MLP: 0.62, DepProb: 0.24,
		},
		CodeBytes: 384 * kib, SharedBytes: 300 * mib, PrivBytes: 4 * mib,
		SerialInstr: 13_000_000,
	},
	"BT": {
		Name: "BT", Class: "B",
		Params: trace.Params{
			LoadFrac: 0.30, StoreFrac: 0.11, BranchFrac: 0.08,
			HotFrac: 0.935, WarmFrac: 0.020, SeqFrac: 0.033, StrideFrac: 0.005, RandFrac: 0.007,
			HotBytes: 6 * kib, WarmBytes: 1056 * kib, WarmStride: 192, StrideBytes: 128,
			SharedFrac: 0.82,
			LoopLen:    448, DataBranchFrac: 0.03, DataEntropy: 0.25,
			CodeHotBytes: 26 * kib, CodeJumpProb: 0.0012,
			ChunkInstr: 500_000, ImbalancePct: 0.04,
			MLP: 0.55, DepProb: 0.30,
		},
		CodeBytes: 512 * kib, SharedBytes: 300 * mib, PrivBytes: 4 * mib,
		SerialInstr: 14_000_000,
	},
}

// ByName returns the profile for the benchmark (case-sensitive canonical
// name, e.g. "CG").
func ByName(name string) (Profile, error) {
	p, ok := table[name]
	if !ok {
		return Profile{}, fmt.Errorf("profiles: unknown benchmark %q", name)
	}
	return p, nil
}

// All returns every profile, sorted by name.
func All() []Profile {
	out := make([]Profile, 0, len(table))
	for _, p := range table {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Studied returns the six class-B benchmarks of the paper's evaluation, in
// the order used for the figures.
func Studied() []Profile {
	names := []string{"CG", "MG", "FT", "IS", "LU", "SP"}
	out := make([]Profile, 0, len(names))
	for _, n := range names {
		p, err := ByName(n)
		if err != nil {
			panic(err)
		}
		out = append(out, p)
	}
	return out
}

// StudiedNames returns the names of the studied set in figure order.
func StudiedNames() []string { return []string{"CG", "MG", "FT", "IS", "LU", "SP"} }
