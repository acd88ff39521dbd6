package core

import (
	"math"
	"testing"

	"xeonomp/internal/config"
	"xeonomp/internal/profiles"
	"xeonomp/internal/sched"
)

// TestCellAllocsFlat guards the cycle engine's hot path by measurement.
// A cell allocates its machine, trace generators, counter banks and
// result once; nothing it does per instruction, per cache miss or per
// stepping window may allocate. So its allocation count must not grow
// with its instruction budget. Each cell below runs at two budgets 4x
// apart, and the two counts must agree within allocSlack. One
// allocation per window or per miss adds thousands of objects at these
// budgets, and the larger budget shows about four times as many.
//
// The cells cover every stepping path: machine.runSolo's single-context
// loop (cpu.StepWindow) on one core and across cores, its two-context
// loop (cpu.StepWindow2), the multi-core loop on two HT chips, and a
// pair of programs on each window loop. No cache and no sampler are
// set, because the sampler's time series legitimately grows with the
// run. The counts are the same under the race detector.
func TestCellAllocsFlat(t *testing.T) {
	cg, _ := profiles.ByName("CG")
	ft, _ := profiles.ByName("FT")
	cells := []struct {
		w   Workload
		cfg string
	}{
		{Single(cg), "Serial"},        // runSolo → StepWindow
		{Single(cg), "HT on -2-1"},    // one HT core → StepWindow2
		{Single(cg), "HT off -2-1"},   // two cores, one context each → StepWindow
		{Single(cg), "HT on -8-2"},    // two HT chips → the multi-core loop
		{Pair(cg, ft), "HT on -4-1"},  // two programs on one HT chip → StepWindow2
		{Pair(cg, ft), "HT off -4-2"}, // two programs on two CMP chips → StepWindow
	}
	const lo, hi = 0.01, 0.04
	for _, c := range cells {
		cfg, err := config.ByName(c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		small, large := cellAllocs(t, c.w, cfg, lo), cellAllocs(t, c.w, cfg, hi)
		t.Logf("%-6s %-12s %6.0f allocs at scale %g, %6.0f at %g", c.w.Name(), c.cfg, small, lo, large, hi)
		if math.Abs(large-small) > allocSlack(min(small, large)) {
			t.Errorf("%s on %s: %.0f allocations at scale %g but %.0f at %g; a cell's allocations must not depend on its instruction budget",
				c.w.Name(), c.cfg, small, lo, large, hi)
		}
	}
}

// allocSlack is how far two budgets' counts of one cell may differ: 10%
// plus 16 objects. Clean cells of 80 to 590 objects differ between runs
// by up to 16, at either budget and with or without GC.
func allocSlack(n float64) float64 { return n/10 + 16 }

// cellAllocs is the mean heap allocation count of one cell at scale,
// after a warm-up run has filled the machine pool.
func cellAllocs(t *testing.T, w Workload, cfg config.Configuration, scale float64) float64 {
	t.Helper()
	opt := Options{Scale: scale, Seed: 1, Policy: sched.Alternate, WarmupFrac: 0.35}
	return testing.AllocsPerRun(2, func() {
		if _, err := Run(w, cfg, opt); err != nil {
			t.Fatal(err)
		}
	})
}
