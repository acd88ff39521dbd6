package xeonomp

// The benchmark harness: one testing.B benchmark per table and figure of
// the paper (see DESIGN.md section 4 for the experiment index), plus one
// sub-benchmark per design-choice ablation.
//
// Each figure/table bench regenerates the experiment's data at a reduced
// instruction-budget scale per iteration and logs the rendered output once
// (visible with -v or in the benchmark output file). cmd/xeonchar runs the
// same experiments at full scale.

import (
	"context"
	"fmt"
	"os"
	"testing"

	"xeonomp/internal/config"
	"xeonomp/internal/core"
	"xeonomp/internal/lmbench"
	"xeonomp/internal/machine"
	"xeonomp/internal/profiles"
	"xeonomp/internal/runcache"
)

// benchScale returns the per-iteration work scale, overridable through
// XEONOMP_BENCH_SCALE for full-fidelity runs.
func benchScale(def float64) float64 {
	if v := os.Getenv("XEONOMP_BENCH_SCALE"); v != "" {
		var s float64
		if _, err := fmt.Sscanf(v, "%g", &s); err == nil && s > 0 {
			return s
		}
	}
	return def
}

func benchOptions(scale float64) core.Options {
	o := core.DefaultOptions()
	o.Scale = benchScale(scale)
	return o
}

// runSingleStudy / runPairStudy / runCrossStudy run a fresh study to
// completion — the run-and-return shorthand the figure/table benches use.
func runSingleStudy(opt core.Options) (*core.SingleStudy, error) {
	s := core.NewSingleStudy()
	if err := s.Run(context.Background(), opt); err != nil {
		return nil, err
	}
	return s, nil
}

func runPairStudy(opt core.Options) (*core.PairStudy, error) {
	s := core.NewPairStudy()
	if err := s.Run(context.Background(), opt); err != nil {
		return nil, err
	}
	return s, nil
}

func runCrossStudy(opt core.Options) (*core.CrossStudy, error) {
	s := core.NewCrossStudy()
	if err := s.Run(context.Background(), opt); err != nil {
		return nil, err
	}
	return s, nil
}

// BenchmarkStudyCacheCold runs the single-program study with an empty
// run cache each iteration — the price of simulating every cell. Compare
// with BenchmarkStudyCacheWarm (make bench-cache runs both).
func BenchmarkStudyCacheCold(b *testing.B) {
	opt := benchOptions(0.05)
	for i := 0; i < b.N; i++ {
		cache, err := runcache.New(0, "")
		if err != nil {
			b.Fatal(err)
		}
		opt.Cache = cache
		if _, err := runSingleStudy(opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStudyCacheWarm runs the same study against a pre-populated
// run cache, so every cell is a lookup — the warm-rerun price.
func BenchmarkStudyCacheWarm(b *testing.B) {
	opt := benchOptions(0.05)
	cache, err := runcache.New(0, "")
	if err != nil {
		b.Fatal(err)
	}
	opt.Cache = cache
	if _, err := runSingleStudy(opt); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := runSingleStudy(opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSection3Lmbench regenerates the paper's Section 3 platform
// measurements (latencies and bandwidths).
func BenchmarkSection3Lmbench(b *testing.B) {
	m, err := machine.New(machine.PaxvilleSMP())
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		r, err := lmbench.Measure(m)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("L1 %.2f ns (1.43), L2 %.2f ns (10.6), mem %.2f ns (136.85), read %.2f/%.2f GB/s (3.57/4.43), write %.2f/%.2f GB/s (1.77/2.6)",
				r.L1Ns, r.L2Ns, r.MemNs, r.ReadBW1/1e9, r.ReadBW2/1e9, r.WriteBW1/1e9, r.WriteBW2/1e9)
		}
	}
}

// BenchmarkTable1Configurations regenerates Table 1 (configuration
// definitions applied to the machine).
func BenchmarkTable1Configurations(b *testing.B) {
	m, err := machine.New(machine.PaxvilleSMP())
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		for _, cfg := range config.Table1() {
			if _, err := cfg.Apply(m); err != nil {
				b.Fatal(err)
			}
		}
		if i == 0 {
			b.Logf("\n%s", core.Table1Report().String())
		}
	}
}

// BenchmarkFigure2CounterPanels regenerates the nine Figure-2 panels
// (cache/TLB/branch/stall/bus/CPI metrics of the single-program study).
func BenchmarkFigure2CounterPanels(b *testing.B) {
	opt := benchOptions(0.1)
	for i := 0; i < b.N; i++ {
		study, err := runSingleStudy(opt)
		if err != nil {
			b.Fatal(err)
		}
		tables, err := study.Figure2Tables()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, t := range tables {
				b.Logf("\n%s", t.String())
			}
		}
	}
}

// BenchmarkFigure3Speedups regenerates Figure 3 (single-program speedups).
func BenchmarkFigure3Speedups(b *testing.B) {
	opt := benchOptions(0.1)
	for i := 0; i < b.N; i++ {
		study, err := runSingleStudy(opt)
		if err != nil {
			b.Fatal(err)
		}
		t, err := study.Figure3Table()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", t.String())
		}
	}
}

// BenchmarkTable2AverageSpeedups regenerates Table 2 (average speedup per
// architecture).
func BenchmarkTable2AverageSpeedups(b *testing.B) {
	opt := benchOptions(0.1)
	for i := 0; i < b.N; i++ {
		study, err := runSingleStudy(opt)
		if err != nil {
			b.Fatal(err)
		}
		t, err := study.Table2Report()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", t.String())
		}
	}
}

// BenchmarkFigure4MultiProgram regenerates Figure 4 (CG/FT, FT/FT, CG/CG
// pair metrics and speedups).
func BenchmarkFigure4MultiProgram(b *testing.B) {
	opt := benchOptions(0.08)
	for i := 0; i < b.N; i++ {
		study, err := runPairStudy(opt)
		if err != nil {
			b.Fatal(err)
		}
		tables, err := study.Figure4Tables()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, t := range tables {
				b.Logf("\n%s", t.String())
			}
		}
	}
}

// BenchmarkFigure5CrossProduct regenerates Figure 5 (box-and-whisker
// summary of all benchmark pairs per configuration).
func BenchmarkFigure5CrossProduct(b *testing.B) {
	opt := benchOptions(0.04)
	for i := 0; i < b.N; i++ {
		study, err := runCrossStudy(opt)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", study.Figure5Plot())
		}
	}
}

// BenchmarkAblations runs every DESIGN.md ablation (core.Ablations) at a
// reduced scale, logging each stock-versus-variant speedup table once.
// xeonchar -ablation runs the same ablations at full scale.
func BenchmarkAblations(b *testing.B) {
	opt := benchOptions(0.08)
	for _, a := range core.Ablations() {
		b.Run(a.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				t, err := a.Run(context.Background(), opt)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.Logf("\n%s", t.String())
				}
			}
		})
	}
}

// BenchmarkCell measures raw per-cell simulation speed for the cell kinds
// the engine optimizations move: the memory-bound CG (dominated by cache
// and bus model traffic) against the compute-bound EP (dominated by the
// issue loop), each serial, with Hyper-Threading sharing one core, and
// with two dedicated cores. cmd/benchsnap runs the same grid to produce
// the BENCH_*.json trajectory; these benchmarks are the interactive view
// (compare with benchstat across commits). The bytes/s column reads as
// simulated instructions per second.
func BenchmarkCell(b *testing.B) {
	for _, bn := range []string{"CG", "EP"} {
		prof, err := profiles.ByName(bn)
		if err != nil {
			b.Fatal(err)
		}
		for _, cn := range []string{"Serial", "HT on -2-1", "HT off -2-2"} {
			cfg, err := config.ByName(cn)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("%s/%s", bn, cn), func(b *testing.B) {
				opt := benchOptions(0.1)
				b.SetBytes(int64(float64(prof.SerialInstr) * opt.Scale))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := core.RunSingle(prof, cfg, opt); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkSimulatorThroughput measures raw simulation speed: simulated
// instructions per second for a serial CG run.
func BenchmarkSimulatorThroughput(b *testing.B) {
	cg, err := profiles.ByName("CG")
	if err != nil {
		b.Fatal(err)
	}
	serial, err := config.ByArch(config.Serial)
	if err != nil {
		b.Fatal(err)
	}
	opt := benchOptions(0.1)
	instr := int64(float64(cg.SerialInstr) * opt.Scale)
	b.SetBytes(instr) // bytes/s metric reads as simulated instructions/s
	for i := 0; i < b.N; i++ {
		if _, err := core.RunSingle(cg, serial, opt); err != nil {
			b.Fatal(err)
		}
	}
}
