package core

import (
	"runtime"
	"strings"
	"testing"

	"xeonomp/internal/config"
	"xeonomp/internal/stats"
)

// TestPaperShapes is the integration test of the reproduction: it runs the
// full single-program study at a moderate scale and asserts the qualitative
// results the paper reports (DESIGN.md section 6). It is the expensive test
// of this package; -short skips it.
func TestPaperShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-shape integration study is not run in -short mode")
	}
	opt := DefaultOptions()
	opt.Scale = 0.4
	// Results do not depend on Workers (TestStudySerializationIsBitStable),
	// so the shape studies use every CPU, and the race pass covers
	// RunCells' worker pool.
	opt.Workers = runtime.GOMAXPROCS(0)
	study, err := runSingleStudy(opt)
	if err != nil {
		t.Fatal(err)
	}

	cfgName := func(a config.Arch) string {
		c, err := config.ByArch(a)
		if err != nil {
			t.Fatal(err)
		}
		return c.Name
	}
	speedup := func(bench string, a config.Arch) float64 {
		v, err := study.Speedup(bench, cfgName(a))
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	metrics := func(bench string, a config.Arch) (m struct {
		L1, L2, BP, Stall float64
	}) {
		r, err := study.Result(bench, cfgName(a))
		if err != nil {
			t.Fatal(err)
		}
		mm := r.Programs[0].Metrics
		m.L1, m.L2, m.BP, m.Stall = mm.L1MissRate, mm.L2MissRate, mm.BranchPredRate, mm.StalledPct
		return
	}

	archs, avg, err := study.Table2()
	if err != nil {
		t.Fatal(err)
	}
	if len(archs) != 7 {
		t.Fatalf("Table 2 has %d architectures", len(archs))
	}

	// (1) CMP-based SMP and CMT-based SMP have the highest average speedups.
	best, second := config.Arch(""), config.Arch("")
	var bestV, secondV float64
	for a, v := range avg {
		if v > bestV {
			second, secondV = best, bestV
			best, bestV = a, v
		} else if v > secondV {
			second, secondV = a, v
		}
	}
	top := map[config.Arch]bool{best: true, second: true}
	if !top[config.CMPSMP] || !top[config.CMTSMP] {
		t.Errorf("top-2 architectures = %v/%v (%.2f/%.2f), want CMP-based SMP and CMT-based SMP; all: %v",
			best, second, bestV, secondV, avg)
	}

	// (2) The fully-loaded HT machine is a small net slowdown vs HT off
	// (paper: ~6.7%), within a generous band.
	rel := avg[config.CMTSMP] / avg[config.CMPSMP]
	if rel < 0.80 || rel > 1.02 {
		t.Errorf("CMT-SMP / CMP-SMP average ratio %.3f, want a modest slowdown (0.80..1.02)", rel)
	}

	// (3) CG is the exception that gains from HT at full load.
	cgGain := speedup("CG", config.CMTSMP) / speedup("CG", config.CMPSMP)
	if cgGain <= 1.0 {
		t.Errorf("CG at HT on -8-2 should beat HT off -4-2, ratio %.3f", cgGain)
	}
	// ...and the majority of the others must not gain.
	losers := 0
	for _, bn := range study.Benchmarks {
		if bn == "CG" {
			continue
		}
		if speedup(bn, config.CMTSMP) <= speedup(bn, config.CMPSMP)*1.02 {
			losers++
		}
	}
	if losers < 4 {
		t.Errorf("only %d of 5 non-CG benchmarks avoid gaining from HT at full load", losers)
	}

	// (4) HT-on configurations show higher L2 miss rates than their HT-off
	// group partners (groups 2 and 3), averaged over benchmarks.
	for _, grp := range [][2]config.Arch{{config.CMP, config.CMT}, {config.SMP, config.SMTSMP}} {
		var off, on float64
		for _, bn := range study.Benchmarks {
			off += metrics(bn, grp[0]).L2
			on += metrics(bn, grp[1]).L2
		}
		if on <= off {
			t.Errorf("HT-on (%s) average L2 miss %.3f not above HT-off (%s) %.3f", grp[1], on/6, grp[0], off/6)
		}
	}

	// (5) L1 miss rates are comparatively flat across configurations.
	for _, bn := range study.Benchmarks {
		lo, hi := 1.0, 0.0
		for _, cfg := range study.Configs {
			r, err := study.Result(bn, cfg.Name)
			if err != nil {
				t.Fatal(err)
			}
			v := r.Programs[0].Metrics.L1MissRate
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		if hi > 3*lo+0.02 {
			t.Errorf("%s L1 miss rate not flat: %.3f .. %.3f", bn, lo, hi)
		}
	}

	// (6) IS is the branch-prediction outlier: fine with HT off, poor with
	// HT on; the others stay uniformly high.
	isOff := metrics("IS", config.CMP).BP
	isOn := metrics("IS", config.CMT).BP
	if isOff-isOn < 5 {
		t.Errorf("IS branch prediction should collapse under HT: off %.1f%%, on %.1f%%", isOff, isOn)
	}
	for _, bn := range study.Benchmarks {
		if bn == "IS" {
			continue
		}
		if bp := metrics(bn, config.CMTSMP).BP; bp < 90 {
			t.Errorf("%s branch prediction %.1f%% under HT, want excellent", bn, bp)
		}
	}

	// (7) HT-on configurations spend more cycles stalled than HT-off ones
	// on average (groups 2/3/4 pattern from the paper).
	var stallOff, stallOn float64
	for _, bn := range study.Benchmarks {
		stallOff += metrics(bn, config.CMP).Stall + metrics(bn, config.SMP).Stall + metrics(bn, config.CMPSMP).Stall
		stallOn += metrics(bn, config.CMT).Stall + metrics(bn, config.SMTSMP).Stall + metrics(bn, config.CMTSMP).Stall
	}
	if stallOn <= stallOff {
		t.Errorf("HT-on average stall %.1f%% not above HT-off %.1f%%", stallOn/18, stallOff/18)
	}

	// (8) Efficiency: the CMT chip (half the machine) must land within a
	// credible band of the CMP-based SMP average (paper: 3.6%; the
	// simulator preserves "close", not the exact figure).
	eff := avg[config.CMT] / avg[config.CMPSMP]
	if eff < 0.5 || eff > 1.05 {
		t.Errorf("CMT / CMP-SMP average ratio %.3f implausible", eff)
	}

	// The rendering layer must digest the same study without errors.
	tables, err := study.Figure2Tables()
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 9 {
		t.Fatalf("Figure 2 has %d panels, want 9", len(tables))
	}
	f3, err := study.Figure3Table()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(f3.String(), "CG") {
		t.Fatal("Figure 3 table missing benchmarks")
	}
	t2, err := study.Table2Report()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(t2.String(), "CMT-based SMP") {
		t.Fatal("Table 2 report missing architectures")
	}
}

// TestPairStudyShapes checks the paper's multi-program findings: the
// complementary CG/FT mix outperforms the identical pairs.
func TestPairStudyShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("pair-study integration is not run in -short mode")
	}
	opt := DefaultOptions()
	opt.Scale = 0.3
	opt.Workers = runtime.GOMAXPROCS(0)
	study, err := runPairStudy(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(study.Workloads) != 3 {
		t.Fatalf("%d workloads, want 3", len(study.Workloads))
	}

	// Resource complementarity on the full HT machine: the CG/FT mix,
	// taken over both programs, beats what the same programs achieve in
	// their identical-pair workloads (the paper's "tangible performance
	// benefit" of mixing compute-bound and memory-bound programs).
	cmt, _ := config.ByArch(config.CMT) // the paper's best multi-program performer
	cmtSMP, _ := config.ByArch(config.CMTSMP)
	mixed := study.Workloads[0] // CG/FT
	ftft := study.Workloads[1]  // FT/FT
	cgcg := study.Workloads[2]  // CG/CG
	spdup := func(w Workload, pi int, cfgName string) float64 {
		v, err := study.ProgramSpeedup(w, pi, cfgName)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	// The complementary mix must win on at least one of the two HT-on
	// configurations (the paper: "better ... for most architectures"), and
	// clearly on CMT, where cache complementarity is strongest.
	wins := 0
	for _, cfgName := range []string{cmt.Name, cmtSMP.Name} {
		mixedMean := (spdup(mixed, 0, cfgName) + spdup(mixed, 1, cfgName)) / 2
		sameMean := (spdup(cgcg, 0, cfgName) + spdup(ftft, 1, cfgName)) / 2
		if mixedMean > sameMean {
			wins++
		}
	}
	if wins == 0 {
		t.Errorf("CG/FT mix never beats the identical pairs")
	}
	// FT itself must prefer the CG partner over another FT on CMT (their
	// warm sets fit one L2 together; two FT warm sets thrash it).
	if spdup(mixed, 1, cmt.Name) <= spdup(ftft, 1, cmt.Name) {
		t.Errorf("FT with CG (%.2fx) should beat FT with FT (%.2fx) on CMT",
			spdup(mixed, 1, cmt.Name), spdup(ftft, 1, cmt.Name))
	}

	tables, err := study.Figure4Tables()
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 9 { // 8 metric panels (DTLB skipped) + speedups
		t.Fatalf("Figure 4 has %d tables, want 9", len(tables))
	}
}

// TestCrossStudyShapes checks Figure 5: CMP-based SMP has the best median
// pair performance; box summaries are well-formed.
func TestCrossStudyShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-product integration is not run in -short mode")
	}
	opt := DefaultOptions()
	opt.Scale = 0.3
	opt.Workers = runtime.GOMAXPROCS(0)
	study, err := runCrossStudy(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(study.Configs) != 7 {
		t.Fatalf("%d configurations, want 7", len(study.Configs))
	}
	var bestName string
	var bestMedian float64
	for _, cfg := range study.Configs {
		b := study.Boxes[cfg.Name]
		if b.N != 42 { // 21 pairs x 2 program instances
			t.Fatalf("%s has %d samples, want 42", cfg.Name, b.N)
		}
		if !(b.Min <= b.Q1 && b.Q1 <= b.Median && b.Median <= b.Q3 && b.Q3 <= b.Max) {
			t.Fatalf("%s box not ordered: %+v", cfg.Name, b)
		}
		if b.Median > bestMedian {
			bestMedian, bestName = b.Median, cfg.Name
		}
	}
	cmpSMP, _ := config.ByArch(config.CMPSMP)
	cmtSMP, _ := config.ByArch(config.CMTSMP)
	if bestName != cmpSMP.Name && bestName != cmtSMP.Name {
		t.Errorf("best median pair config = %s, want a full-machine configuration", bestName)
	}
	// The paper: "HT off -4-2 provides the overall best performance for
	// the majority of program pairs".
	winsCMP := 0
	pairsChecked := 0
	for pairName, sp := range study.PairSpeedups[cmpSMP.Name] {
		other := study.PairSpeedups[cmtSMP.Name][pairName]
		pairsChecked++
		if stats.Mean(sp) >= stats.Mean(other) {
			winsCMP++
		}
	}
	if winsCMP*2 < pairsChecked {
		t.Errorf("CMP-based SMP wins only %d of %d pairs vs CMT-based SMP", winsCMP, pairsChecked)
	}
	if out := study.Figure5Plot(); !strings.Contains(out, "HT off -4-2") {
		t.Fatal("Figure 5 plot missing configurations")
	}
}
