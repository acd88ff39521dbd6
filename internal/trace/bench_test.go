package trace_test

import (
	"testing"

	"xeonomp/internal/profiles"
	"xeonomp/internal/trace"
)

var benchSink uint64

// BenchmarkNext times one Generator.Next record on the CG and EP streams:
// a memory-heavy and a compute-heavy instruction mix, the pair the
// perfbench trace.next_ns probe uses.
func BenchmarkNext(b *testing.B) {
	for _, name := range []string{"CG", "EP"} {
		p, err := profiles.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			layout, err := p.Layout(1, 1)
			if err != nil {
				b.Fatal(err)
			}
			fresh := func() *trace.Generator {
				g, err := p.Generator(layout, 0, 1, 1.0, 1)
				if err != nil {
					b.Fatal(err)
				}
				return g
			}
			g := fresh()
			var in trace.Instr
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !g.Next(&in) {
					b.StopTimer()
					g = fresh()
					b.StartTimer()
				}
				benchSink += in.Addr
			}
		})
	}
}
