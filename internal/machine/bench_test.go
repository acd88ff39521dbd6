package machine

import (
	"fmt"
	"testing"

	"xeonomp/internal/cpu"
	"xeonomp/internal/profiles"
)

// BenchmarkCell runs one CG cell at scale 0.02 per stepping shape of the
// cycle engine: serial (one context, StepWindow), HT (both contexts of one
// core, StepWindow2) and two cores (one context each, the lockstep loop
// and its solo windows). Machines come from a Pool and the caches are
// prewarmed, as a study cell does. host-ns/sim-cycle is the wall time per
// simulated cycle, the unit of the perfbench machine.host_ns_per_sim_cycle
// probes.
func BenchmarkCell(b *testing.B) {
	shapes := []struct {
		name string
		at   [][3]int // (chip, core, context) per thread
	}{
		{"serial", [][3]int{{0, 0, 0}}},
		{"ht", [][3]int{{0, 0, 0}, {0, 0, 1}}},
		{"cmp", [][3]int{{0, 0, 0}, {0, 1, 0}}},
	}
	prof, err := profiles.ByName("CG")
	if err != nil {
		b.Fatal(err)
	}
	pool := NewPool()
	for _, sh := range shapes {
		b.Run(sh.name, func(b *testing.B) {
			n := len(sh.at)
			var cycles int64
			for i := 0; i < b.N; i++ {
				m, err := pool.Get(PaxvilleSMP())
				if err != nil {
					b.Fatal(err)
				}
				layout, err := prof.Layout(1, n)
				if err != nil {
					b.Fatal(err)
				}
				prog, err := prof.Program(layout, n, 0.02, 1)
				if err != nil {
					b.Fatal(err)
				}
				team := cpu.NewTeam(n)
				for tid, at := range sh.at {
					gen, err := prog.Thread(tid)
					if err != nil {
						b.Fatal(err)
					}
					x, err := m.Context(at[0], at[1], at[2])
					if err != nil {
						b.Fatal(err)
					}
					x.Enabled = true
					x.Assign(cpu.NewThread(fmt.Sprintf("CG.0.t%d", tid), 0, gen, team))
				}
				for _, x := range m.Enabled() {
					x.Prewarm()
				}
				c, err := m.Run(0)
				if err != nil {
					b.Fatal(err)
				}
				cycles += c
				pool.Put(m)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(cycles), "host-ns/sim-cycle")
		})
	}
}
