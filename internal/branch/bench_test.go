package branch

import "testing"

var benchSink uint64

// BenchmarkResolve times Resolve on the Paxville predictor geometry over
// 4096 branch sites whose directions are biased per site, the mix of the
// perfbench branch probe.
func BenchmarkResolve(b *testing.B) {
	type br struct {
		pc, target uint64
		taken      bool
	}
	s := uint64(0x5eed)
	next := func() uint64 {
		s ^= s >> 12
		s ^= s << 25
		s ^= s >> 27
		return s * 2685821657736338717
	}
	in := make([]br, 1<<16)
	for i := range in {
		site := next() % 4096
		in[i] = br{pc: 0x400000 + site*16, target: 0x400000 + (site^0x55)*16, taken: next()%8 < site%8}
	}
	p := New(Config{PHTBits: 12, HistoryBits: 10, BTBEntries: 2048})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := &in[i&(len(in)-1)]
		if p.Resolve(x.pc, x.taken, x.target).Mispredicted {
			benchSink++
		}
	}
}
