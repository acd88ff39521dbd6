package tlb

import (
	"slices"
	"testing"
	"testing/quick"
)

func cfg() Config {
	return Config{Name: "t", Entries: 8, Assoc: 2, PageSize: 4096} // 4 sets x 2 ways
}

func TestConfigValidate(t *testing.T) {
	if err := cfg().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{Name: "e", Entries: 0, Assoc: 1, PageSize: 4096},
		{Name: "a", Entries: 8, Assoc: 3, PageSize: 4096},
		{Name: "s", Entries: 12, Assoc: 2, PageSize: 4096}, // 6 sets not pow2
		{Name: "p", Entries: 8, Assoc: 2, PageSize: 1000},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("%v should be invalid", c)
		}
	}
}

func TestNewPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(Config{Name: "bad", Entries: 7, Assoc: 2, PageSize: 4096})
}

func TestMissInstallsTranslation(t *testing.T) {
	tl := New(cfg())
	if tl.Access(0x1234) {
		t.Fatal("cold TLB must miss")
	}
	if !tl.Access(0x1FFF) {
		t.Fatal("same page must hit after install")
	}
	if tl.Access(0x2000) {
		t.Fatal("next page must miss")
	}
}

func TestLRUWithinSet(t *testing.T) {
	tl := New(cfg()) // 4 sets
	// Pages mapping to set 0: page numbers 0, 4, 8.
	p := func(n uint64) uint64 { return n * 4 * 4096 }
	tl.Access(p(0))
	tl.Access(p(1))
	tl.Access(p(0)) // refresh page 0
	tl.Access(p(2)) // evicts page 1
	if !tl.Probe(p(0)) || !tl.Probe(p(2)) || tl.Probe(p(1)) {
		t.Fatal("LRU replacement wrong")
	}
}

func TestFlush(t *testing.T) {
	tl := New(cfg())
	tl.Access(0)
	tl.Access(4096)
	if tl.Valid() != 2 {
		t.Fatalf("valid = %d", tl.Valid())
	}
	tl.Flush()
	if tl.Valid() != 0 || tl.Probe(0) {
		t.Fatal("flush incomplete")
	}
}

func TestPage(t *testing.T) {
	tl := New(cfg())
	if tl.Page(4096) != 1 || tl.Page(4095) != 0 {
		t.Fatal("page extraction wrong")
	}
}

func TestReachProperty(t *testing.T) {
	// Sequential pages up to the entry count always fit (reach invariant).
	tl := New(Config{Name: "r", Entries: 64, Assoc: 4, PageSize: 4096})
	for i := uint64(0); i < 64; i++ {
		tl.Access(i * 4096)
	}
	for i := uint64(0); i < 64; i++ {
		if !tl.Probe(i * 4096) {
			t.Fatalf("page %d fell out within reach", i)
		}
	}
}

func TestValidNeverExceedsEntriesProperty(t *testing.T) {
	f := func(addrs []uint32) bool {
		tl := New(cfg())
		for _, a := range addrs {
			tl.Access(uint64(a))
		}
		return tl.Valid() <= 8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestAccessIdempotentHitProperty(t *testing.T) {
	f := func(a uint32) bool {
		tl := New(cfg())
		tl.Access(uint64(a))
		return tl.Access(uint64(a)) // must hit immediately after install
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// refAccess and refProbe are Access and Probe as they were before the set
// scans became match masks: loops that leave at the first matching way,
// and a victim loop that stops at the first empty way and otherwise keeps
// the first least recently used one.
func refAccess(t *TLB, addr uint64) bool {
	vpn := t.Page(addr)
	base := t.setBase(vpn)
	t.clock++
	vpns := t.vpns[base : base+t.assoc]
	for i := range vpns {
		if vpns[i] == vpn {
			t.stamps[base+uint64(i)] = t.clock
			return true
		}
	}
	victim := base
	for j := base; j < base+t.assoc; j++ {
		if t.vpns[j] == invalidVPN {
			victim = j
			break
		}
		if t.stamps[j] < t.stamps[victim] {
			victim = j
		}
	}
	t.vpns[victim] = vpn
	t.stamps[victim] = t.clock
	return false
}

func refProbe(t *TLB, addr uint64) bool {
	vpn := t.Page(addr)
	base := t.setBase(vpn)
	vpns := t.vpns[base : base+t.assoc]
	for i := range vpns {
		if vpns[i] == vpn {
			return true
		}
	}
	return false
}

// TestScansMatchReference drives a TLB through Access and Probe and a twin
// through the reference scans with the same seeded sequence, flushing
// now and then, over 4-way, 8-way and 64-way sets. Every result and the
// final state (VPNs, stamps, clock) must be equal.
func TestScansMatchReference(t *testing.T) {
	for _, assoc := range []int{4, 8, 64} {
		cfg := Config{Name: "ref", Entries: 16 * assoc, Assoc: assoc, PageSize: 4096}
		got, want := New(cfg), New(cfg)
		s := uint64(assoc)
		next := func() uint64 {
			s += 0x9e3779b97f4a7c15
			z := (s ^ s>>30) * 0xbf58476d1ce4e5b9
			z = (z ^ z>>27) * 0x94d049bb133111eb
			return z ^ z>>31
		}
		for op := 0; op < 200_000; op++ {
			r := next()
			// Three times the reach, so sets fill, evict and refresh.
			addr := next() % uint64(3*cfg.Entries*int(cfg.PageSize))
			switch r % 100 {
			case 0:
				got.Flush()
				want.Flush()
			case 1, 2, 3, 4, 5, 6, 7, 8, 9, 10:
				if g, w := got.Probe(addr), refProbe(want, addr); g != w {
					t.Fatalf("%d-way op %d: Probe(%#x) = %v, reference %v", assoc, op, addr, g, w)
				}
			default:
				if g, w := got.Access(addr), refAccess(want, addr); g != w {
					t.Fatalf("%d-way op %d: Access(%#x) = %v, reference %v", assoc, op, addr, g, w)
				}
			}
		}
		if !slices.Equal(got.vpns, want.vpns) || !slices.Equal(got.stamps, want.stamps) || got.clock != want.clock {
			t.Fatalf("%d-way: final state differs from the reference", assoc)
		}
	}
}

func TestAssocBound(t *testing.T) {
	if err := (Config{Name: "wide", Entries: 128, Assoc: 128, PageSize: 4096}).Validate(); err == nil {
		t.Fatal("128 ways accepted")
	}
	if err := (Config{Name: "fa64", Entries: 64, Assoc: 64, PageSize: 4096}).Validate(); err != nil {
		t.Fatalf("64 ways rejected: %v", err)
	}
}
