package cache

import (
	"slices"
	"testing"
	"testing/quick"

	"xeonomp/internal/units"
)

func smallConfig() Config {
	return Config{Name: "test", Size: 1024, LineSize: 64, Assoc: 2} // 8 sets x 2 ways
}

func TestConfigValidate(t *testing.T) {
	good := smallConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{Name: "sz", Size: 0, LineSize: 64, Assoc: 1},
		{Name: "sz2", Size: 1000, LineSize: 64, Assoc: 1}, // not pow2
		{Name: "ln", Size: 1024, LineSize: 48, Assoc: 1},
		{Name: "big", Size: 64, LineSize: 128, Assoc: 1},
		{Name: "as", Size: 1024, LineSize: 64, Assoc: 0},
		{Name: "as2", Size: 1024, LineSize: 64, Assoc: 5}, // 16 lines not divisible
		{Name: "st", Size: 1024, LineSize: 64, Assoc: 16}, // hmm: 16 lines/16 ways = 1 set, pow2 -> actually valid
	}
	for _, c := range bad[:6] {
		if err := c.Validate(); err == nil {
			t.Errorf("config %v should be invalid", c)
		}
	}
	// Fully associative is legal.
	if err := (Config{Name: "fa", Size: 1024, LineSize: 64, Assoc: 16}).Validate(); err != nil {
		t.Errorf("fully associative rejected: %v", err)
	}
}

func TestNewPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(Config{Name: "bad", Size: 100, LineSize: 64, Assoc: 1})
}

func TestMissThenFillThenHit(t *testing.T) {
	c := New(smallConfig())
	addr := uint64(0x1000)
	if c.Lookup(addr, false).Hit {
		t.Fatal("cold cache must miss")
	}
	c.Fill(addr, false, false)
	if !c.Lookup(addr, false).Hit {
		t.Fatal("filled line must hit")
	}
	// Same line, different offset.
	if !c.Lookup(addr+63, false).Hit {
		t.Fatal("same line must hit at any offset")
	}
	if c.Lookup(addr+64, false).Hit {
		t.Fatal("next line must miss")
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(smallConfig()) // 8 sets, 2 ways
	setStride := uint64(8 * 64)
	a := uint64(0)       // set 0
	b := a + setStride   // set 0
	d := a + 2*setStride // set 0
	c.Fill(a, false, false)
	c.Fill(b, false, false)
	c.Lookup(a, false) // refresh a: b becomes LRU
	fr := c.Fill(d, false, false)
	if !fr.Evicted || fr.EvictedAddr != b {
		t.Fatalf("expected b evicted, got %+v", fr)
	}
	if !c.Probe(a) || !c.Probe(d) || c.Probe(b) {
		t.Fatal("LRU state wrong after eviction")
	}
}

func TestDirtyEvictionReported(t *testing.T) {
	c := New(smallConfig())
	setStride := uint64(8 * 64)
	c.Fill(0, true, false) // dirty
	c.Fill(setStride, false, false)
	fr := c.Fill(2*setStride, false, false)
	if !fr.Evicted || !fr.EvictedDirty || fr.EvictedAddr != 0 {
		t.Fatalf("dirty eviction not reported: %+v", fr)
	}
}

func TestWriteHitMarksDirty(t *testing.T) {
	c := New(smallConfig())
	setStride := uint64(8 * 64)
	c.Fill(0, false, false)
	c.Lookup(0, true) // write hit dirties the line
	c.Fill(setStride, false, false)
	fr := c.Fill(2*setStride, false, false)
	if !fr.EvictedDirty {
		t.Fatal("write-hit line should evict dirty")
	}
}

func TestPrefetchedBitConsumedOnce(t *testing.T) {
	c := New(smallConfig())
	c.Fill(0, false, true)
	r1 := c.Lookup(0, false)
	if !r1.Hit || !r1.HitPrefetched {
		t.Fatalf("first demand touch should report prefetched hit: %+v", r1)
	}
	r2 := c.Lookup(0, false)
	if !r2.Hit || r2.HitPrefetched {
		t.Fatalf("second touch must not report prefetched: %+v", r2)
	}
}

func TestDemandFillClearsPrefetchMark(t *testing.T) {
	c := New(smallConfig())
	c.Fill(0, false, true)
	c.Fill(0, false, false) // demand refresh
	if r := c.Lookup(0, false); r.HitPrefetched {
		t.Fatal("demand fill should clear the prefetch mark")
	}
}

func TestInvalidate(t *testing.T) {
	c := New(smallConfig())
	c.Fill(0, true, false)
	present, dirty := c.Invalidate(0)
	if !present || !dirty {
		t.Fatalf("invalidate = %v, %v", present, dirty)
	}
	if c.Probe(0) {
		t.Fatal("line still present after invalidate")
	}
	present, _ = c.Invalidate(0)
	if present {
		t.Fatal("double invalidate should report absent")
	}
}

func TestFlushAndValidLines(t *testing.T) {
	c := New(smallConfig())
	for i := uint64(0); i < 100; i++ {
		c.Fill(i*64, false, false)
	}
	if c.ValidLines() != 16 {
		t.Fatalf("valid lines = %d, want full 16", c.ValidLines())
	}
	c.Flush()
	if c.ValidLines() != 0 {
		t.Fatal("flush left valid lines")
	}
}

func TestCapacityNeverExceededProperty(t *testing.T) {
	cfg := smallConfig()
	capacity := int(cfg.Size / cfg.LineSize)
	f := func(addrs []uint32, writes []bool) bool {
		c := New(cfg)
		for i, a := range addrs {
			w := i < len(writes) && writes[i]
			if !c.Lookup(uint64(a), w).Hit {
				c.Fill(uint64(a), w, i%3 == 0)
			}
		}
		return c.ValidLines() <= capacity
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestFillThenProbeProperty(t *testing.T) {
	c := New(Config{Name: "p", Size: 64 * units.KiB, LineSize: 64, Assoc: 8})
	f := func(a uint32) bool {
		c.Fill(uint64(a), false, false)
		return c.Probe(uint64(a))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestWorkingSetFitsIsAllHits(t *testing.T) {
	// A working set equal to the cache size must be fully resident after
	// one pass — the invariant behind the warm-set calibration.
	cfg := Config{Name: "ws", Size: 16 * units.KiB, LineSize: 64, Assoc: 8}
	c := New(cfg)
	lines := cfg.Size / cfg.LineSize
	for i := int64(0); i < lines; i++ {
		c.Fill(uint64(i*64), false, false)
	}
	for i := int64(0); i < lines; i++ {
		if !c.Lookup(uint64(i*64), false).Hit {
			t.Fatalf("resident line %d missed", i)
		}
	}
}

func TestCyclicOverCapacityThrashes(t *testing.T) {
	// A cyclic scan over 2x the cache under LRU must miss every time after
	// the first pass — the HT-thrash mechanism in the timing model.
	cfg := Config{Name: "th", Size: 4 * units.KiB, LineSize: 64, Assoc: 4}
	c := New(cfg)
	lines := 2 * cfg.Size / cfg.LineSize
	miss := 0
	for pass := 0; pass < 3; pass++ {
		for i := int64(0); i < lines; i++ {
			if !c.Lookup(uint64(i*64), false).Hit {
				miss++
				c.Fill(uint64(i*64), false, false)
			}
		}
	}
	if miss != int(3*lines) {
		t.Fatalf("expected total thrash, got %d misses of %d accesses", miss, 3*lines)
	}
}

func TestLineAddr(t *testing.T) {
	c := New(smallConfig())
	if c.LineAddr(0x12345) != 0x12340 {
		t.Errorf("LineAddr = %#x", c.LineAddr(0x12345))
	}
}

func TestNumSets(t *testing.T) {
	if New(smallConfig()).NumSets() != 8 {
		t.Error("set count wrong")
	}
}

func TestRandomReplacementDegradesGracefully(t *testing.T) {
	// The cyclic 2x-capacity scan that LRU loses completely keeps a
	// substantial hit rate under random replacement — the ablation that
	// isolates the thrash-cliff mechanism.
	cfg := Config{Name: "rr", Size: 4 * units.KiB, LineSize: 64, Assoc: 4, Policy: Random}
	c := New(cfg)
	lines := 2 * cfg.Size / cfg.LineSize
	hits, accesses := 0, 0
	for pass := 0; pass < 10; pass++ {
		for i := int64(0); i < lines; i++ {
			accesses++
			if c.Lookup(uint64(i*64), false).Hit {
				hits++
			} else {
				c.Fill(uint64(i*64), false, false)
			}
		}
	}
	rate := float64(hits) / float64(accesses)
	if rate < 0.10 {
		t.Fatalf("random replacement hit rate %v, want graceful degradation", rate)
	}
}

func TestRandomReplacementDeterministic(t *testing.T) {
	cfg := Config{Name: "rd", Size: 1024, LineSize: 64, Assoc: 2, Policy: Random}
	run := func() int {
		c := New(cfg)
		hits := 0
		for i := 0; i < 2000; i++ {
			a := uint64((i * 2654435761) % 4096 &^ 63)
			if c.Lookup(a, false).Hit {
				hits++
			} else {
				c.Fill(a, false, false)
			}
		}
		return hits
	}
	if run() != run() {
		t.Fatal("random replacement not reproducible")
	}
}

func TestReplacementPolicyValidation(t *testing.T) {
	bad := smallConfig()
	bad.Policy = Replacement(9)
	if err := bad.Validate(); err == nil {
		t.Fatal("unknown policy accepted")
	}
	if LRU.String() != "lru" || Random.String() != "random" {
		t.Fatal("policy names wrong")
	}
}

// The reference scans below are the cache's operations as they were
// before the set scans became match masks: loops that leave at the first
// matching way, and a victim loop that takes the first invalid way or the
// first least recently used one. TestScansMatchReference holds the
// branch-free scans to them.

func refLookup(c *Cache, addr uint64, write bool) LookupResult {
	tag := addr >> c.lineShift
	base := c.setBase(addr)
	c.clock++
	tags := c.tags[base : base+c.assoc]
	for i := range tags {
		if tags[i] == tag {
			j := base + uint64(i)
			f := c.flags[j]
			c.stamps[j] = c.clock
			hp := f&fPrefetched != 0
			wd := f&fDirty != 0
			f &^= fPrefetched
			if write {
				f |= fDirty
			}
			c.flags[j] = f
			return LookupResult{Hit: true, HitPrefetched: hp, WasDirty: wd}
		}
	}
	return LookupResult{}
}

func refProbe(c *Cache, addr uint64) bool {
	tag := addr >> c.lineShift
	base := c.setBase(addr)
	tags := c.tags[base : base+c.assoc]
	for i := range tags {
		if tags[i] == tag {
			return true
		}
	}
	return false
}

func refFill(c *Cache, addr uint64, write, prefetch bool) FillResult {
	tag := addr >> c.lineShift
	base := c.setBase(addr)
	c.clock++
	for j := base; j < base+c.assoc; j++ {
		if c.tags[j] == tag {
			c.stamps[j] = c.clock
			if write {
				c.flags[j] |= fDirty
			}
			if !prefetch {
				c.flags[j] &^= fPrefetched
			}
			return FillResult{}
		}
	}
	victim := uint64(0)
	found := false
	for j := base; j < base+c.assoc; j++ {
		if c.tags[j] == invalidTag {
			victim = j
			found = true
			break
		}
	}
	if !found {
		switch c.cfg.Policy {
		case Random:
			c.rand = c.rand*6364136223846793005 + 1442695040888963407
			victim = base + (c.rand>>33)%c.assoc
		default:
			victim = base
			for j := base + 1; j < base+c.assoc; j++ {
				if c.stamps[j] < c.stamps[victim] {
					victim = j
				}
			}
		}
	}
	res := FillResult{}
	if c.tags[victim] != invalidTag {
		res.Evicted = true
		res.EvictedDirty = c.flags[victim]&fDirty != 0
		res.EvictedAddr = c.tags[victim] << c.lineShift
	}
	c.tags[victim] = tag
	c.stamps[victim] = c.clock
	f := uint8(0)
	if write {
		f |= fDirty
	}
	if prefetch {
		f |= fPrefetched
	}
	c.flags[victim] = f
	return res
}

func refInvalidate(c *Cache, addr uint64) (present, dirty bool) {
	tag := addr >> c.lineShift
	base := c.setBase(addr)
	tags := c.tags[base : base+c.assoc]
	for i := range tags {
		if tags[i] == tag {
			j := base + uint64(i)
			present, dirty = true, c.flags[j]&fDirty != 0
			c.tags[j] = invalidTag
			c.stamps[j] = 0
			c.flags[j] = 0
			return
		}
	}
	return
}

// TestScansMatchReference drives a cache through its methods and a twin
// through the reference scans with the same seeded sequence of lookups,
// probes, fills, invalidations and rare flushes, over 8-way, 4-way and
// 64-way (the widest a match mask holds) sets under LRU and Random
// replacement. Every result and the final state
// (tags, stamps, flags, LRU clock, Random-policy RNG) must be equal.
func TestScansMatchReference(t *testing.T) {
	for _, assoc := range []int{8, 4, 64} {
		for _, pol := range []Replacement{LRU, Random} {
			cfg := Config{Name: "ref", Size: int64(16 * assoc * 64), LineSize: 64, Assoc: assoc, Policy: pol}
			got, want := New(cfg), New(cfg)
			s := uint64(assoc)<<8 | uint64(pol) + 1
			next := func() uint64 {
				s += 0x9e3779b97f4a7c15
				z := (s ^ s>>30) * 0xbf58476d1ce4e5b9
				z = (z ^ z>>27) * 0x94d049bb133111eb
				return z ^ z>>31
			}
			for op := 0; op < 200_000; op++ {
				r := next()
				// Three times the capacity, so sets fill, evict and refresh.
				addr := next() % uint64(3*cfg.Size)
				write, pf := r>>8&1 == 1, r>>9&1 == 1
				switch r % 100 {
				case 0:
					got.Flush()
					want.Flush()
				case 1, 2, 3, 4, 5:
					gp, gd := got.Invalidate(addr)
					wp, wd := refInvalidate(want, addr)
					if gp != wp || gd != wd {
						t.Fatalf("%d-way %v op %d: Invalidate(%#x) = %v,%v, reference %v,%v", assoc, pol, op, addr, gp, gd, wp, wd)
					}
				case 6, 7, 8, 9, 10, 11, 12, 13, 14, 15:
					if g, w := got.Probe(addr), refProbe(want, addr); g != w {
						t.Fatalf("%d-way %v op %d: Probe(%#x) = %v, reference %v", assoc, pol, op, addr, g, w)
					}
				default:
					if r%2 == 0 {
						if g, w := got.Lookup(addr, write), refLookup(want, addr, write); g != w {
							t.Fatalf("%d-way %v op %d: Lookup(%#x) = %+v, reference %+v", assoc, pol, op, addr, g, w)
						}
					} else if g, w := got.Fill(addr, write, pf), refFill(want, addr, write, pf); g != w {
						t.Fatalf("%d-way %v op %d: Fill(%#x) = %+v, reference %+v", assoc, pol, op, addr, g, w)
					}
				}
			}
			if !slices.Equal(got.tags, want.tags) || !slices.Equal(got.stamps, want.stamps) ||
				!slices.Equal(got.flags, want.flags) || got.clock != want.clock || got.rand != want.rand {
				t.Fatalf("%d-way %v: final state differs from the reference", assoc, pol)
			}
		}
	}
}

func TestAssocBound(t *testing.T) {
	if err := (Config{Name: "wide", Size: 128 * 64, LineSize: 64, Assoc: 128}).Validate(); err == nil {
		t.Fatal("128 ways accepted")
	}
	if err := (Config{Name: "fa64", Size: 64 * 64, LineSize: 64, Assoc: 64}).Validate(); err != nil {
		t.Fatalf("64 ways rejected: %v", err)
	}
}
