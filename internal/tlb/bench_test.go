package tlb

import "testing"

var benchSink uint64

// BenchmarkAccess times Access on the Paxville ITLB/DTLB geometry (64
// entries, 4-way, 4 KiB pages) over 256 pages with 80% of the accesses in
// 48 hot pages, the mix of the perfbench TLB probe.
func BenchmarkAccess(b *testing.B) {
	cfg := Config{Name: "DTLB", Entries: 64, Assoc: 4, PageSize: 4096}
	s := uint64(0x5eed)
	next := func() uint64 {
		s ^= s >> 12
		s ^= s << 25
		s ^= s >> 27
		return s * 2685821657736338717
	}
	addrs := make([]uint64, 1<<16)
	for i := range addrs {
		page := next() % 256
		if next()%10 < 8 {
			page %= 48
		}
		addrs[i] = page*uint64(cfg.PageSize) + next()%uint64(cfg.PageSize)
	}
	t := New(cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if t.Access(addrs[i&(len(addrs)-1)]) {
			benchSink++
		}
	}
}
