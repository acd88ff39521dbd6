package branch

import (
	"slices"
	"testing"
)

func cfg() Config {
	return Config{PHTBits: 12, HistoryBits: 10, BTBEntries: 256}
}

func TestConfigValidate(t *testing.T) {
	if err := cfg().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{PHTBits: 0, HistoryBits: 0, BTBEntries: 16},
		{PHTBits: 31, HistoryBits: 0, BTBEntries: 16},
		{PHTBits: 8, HistoryBits: 9, BTBEntries: 16},
		{PHTBits: 8, HistoryBits: 4, BTBEntries: 17},
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
	New(Config{PHTBits: 0})
}

// rate runs n resolutions via gen and returns the fraction mispredicted in
// the second half (after warm-up).
func rate(p *Predictor, n int, gen func(i int) (pc uint64, taken bool)) float64 {
	misp := 0
	count := 0
	for i := 0; i < n; i++ {
		pc, taken := gen(i)
		out := p.Resolve(pc, taken, pc+16)
		if i >= n/2 {
			count++
			if out.Mispredicted {
				misp++
			}
		}
	}
	return float64(misp) / float64(count)
}

func TestLearnsAlwaysTaken(t *testing.T) {
	p := New(cfg())
	r := rate(p, 2000, func(i int) (uint64, bool) { return 0x400000, true })
	if r > 0.001 {
		t.Fatalf("always-taken mispredict rate %v", r)
	}
}

func TestLearnsAlwaysNotTaken(t *testing.T) {
	p := New(cfg())
	r := rate(p, 2000, func(i int) (uint64, bool) { return 0x400000, false })
	if r > 0.001 {
		t.Fatalf("always-not-taken mispredict rate %v", r)
	}
}

func TestLearnsLoopBranch(t *testing.T) {
	// Taken 63 of 64: the classic loop-back pattern. Global history must
	// catch the exit.
	p := New(cfg())
	r := rate(p, 64*200, func(i int) (uint64, bool) { return 0x400000, i%64 != 63 })
	if r > 0.02 {
		t.Fatalf("loop branch mispredict rate %v", r)
	}
}

func TestLearnsShortPattern(t *testing.T) {
	// Period-3 "110" pattern at a single site: gshare learns it exactly.
	p := New(cfg())
	pattern := []bool{true, true, false}
	r := rate(p, 6000, func(i int) (uint64, bool) { return 0x400000, pattern[i%3] })
	if r > 0.01 {
		t.Fatalf("pattern mispredict rate %v", r)
	}
}

func TestInterleavedStreamsDegradeEachOther(t *testing.T) {
	// The paper's HT branch effect: two contexts share the predictor. A
	// learnable pattern interleaved with a second thread's independent
	// pattern in the SAME shared history register becomes much harder.
	solo := New(cfg())
	pattern := []bool{true, false, false}
	soloRate := rate(solo, 9000, func(i int) (uint64, bool) { return 0x400000 + uint64(i%7)*4, pattern[i%3] })

	shared := New(cfg())
	n1, n2 := 0, 0
	sharedRate := rate(shared, 18000, func(i int) (uint64, bool) {
		if i%2 == 0 {
			// Thread A: the patterned stream.
			k := n1
			n1++
			return 0x400000 + uint64(k%7)*4, pattern[k%3]
		}
		// Thread B: different code, alternating outcomes.
		k := n2
		n2++
		return 0x900000 + uint64(k%13)*4, k%2 == 0
	})
	if sharedRate < soloRate+0.01 {
		t.Fatalf("sharing did not degrade prediction: solo %v, shared %v", soloRate, sharedRate)
	}
}

func TestBTBMissOnFirstTakenOnly(t *testing.T) {
	p := New(cfg())
	out := p.Resolve(0x1000, true, 0x2000)
	if !out.BTBMiss {
		t.Fatal("first taken branch must miss BTB")
	}
	out = p.Resolve(0x1000, true, 0x2000)
	if out.BTBMiss {
		t.Fatal("second taken branch with same target must hit BTB")
	}
	// Target change re-misses.
	out = p.Resolve(0x1000, true, 0x3000)
	if !out.BTBMiss {
		t.Fatal("target change must miss BTB")
	}
}

func TestNotTakenDoesNotTouchBTB(t *testing.T) {
	p := New(cfg())
	out := p.Resolve(0x1000, false, 0)
	if out.BTBMiss {
		t.Fatal("not-taken branch should not report BTB miss")
	}
}

func TestReset(t *testing.T) {
	p := New(cfg())
	for i := 0; i < 100; i++ {
		p.Resolve(0x1000, true, 0x2000)
	}
	p.Reset()
	out := p.Resolve(0x1000, true, 0x2000)
	if !out.BTBMiss {
		t.Fatal("reset should clear the BTB")
	}
}

func TestAliasingIsBounded(t *testing.T) {
	// Many distinct always-taken sites: even with aliasing the rate must
	// converge near zero because all alias entries saturate the same way.
	p := New(cfg())
	r := rate(p, 20000, func(i int) (uint64, bool) { return uint64(i%5000) * 4, true })
	if r > 0.01 {
		t.Fatalf("aliased always-taken rate %v", r)
	}
}

// refResolve is Resolve as it was before the update became branch-free:
// the counter saturates through compares, and the BTB and the history
// change under `if taken`.
func refResolve(p *Predictor, pc uint64, taken bool, target uint64) Outcome {
	idx := p.index(pc)
	predictTaken := p.pht[idx] >= 2
	var out Outcome
	if predictTaken != taken {
		out.Mispredicted = true
	}
	if taken {
		b := (pc >> 2) & p.btbMask
		if p.btb[b] != target {
			out.BTBMiss = true
			p.btb[b] = target
		}
	}
	if taken {
		if p.pht[idx] < 3 {
			p.pht[idx]++
		}
	} else if p.pht[idx] > 0 {
		p.pht[idx]--
	}
	p.history <<= 1
	if taken {
		p.history |= 1
	}
	return out
}

// TestResolveMatchesReference drives a predictor through Resolve and a
// twin through refResolve with the same seeded branches (biased and
// unbiased sites, changing targets, a reset now and then). Every outcome
// and the final state (pattern table, BTB, history) must be equal.
func TestResolveMatchesReference(t *testing.T) {
	got, want := New(cfg()), New(cfg())
	s := uint64(7)
	next := func() uint64 {
		s += 0x9e3779b97f4a7c15
		z := (s ^ s>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		return z ^ z>>31
	}
	for op := 0; op < 300_000; op++ {
		r := next()
		if r%50_000 == 0 {
			got.Reset()
			want.Reset()
			continue
		}
		site := r >> 8 % 3000
		pc := 0x400000 + site*4
		// Site-dependent bias from always not taken to always taken, so
		// counters saturate at both ends.
		taken := r>>32%8 < site%9
		target := pc + 16 + (r>>40%2)*64
		if g, w := got.Resolve(pc, taken, target), refResolve(want, pc, taken, target); g != w {
			t.Fatalf("op %d: Resolve(%#x, %v, %#x) = %+v, reference %+v", op, pc, taken, target, g, w)
		}
	}
	if !slices.Equal(got.pht, want.pht) || !slices.Equal(got.btb, want.btb) || got.history != want.history {
		t.Fatal("final state differs from the reference")
	}
}
