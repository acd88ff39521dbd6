package trace

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"xeonomp/internal/mem"
)

func testParams() Params {
	return Params{
		LoadFrac: 0.30, StoreFrac: 0.10, BranchFrac: 0.10,
		HotFrac: 0.80, WarmFrac: 0.05, SeqFrac: 0.08, StrideFrac: 0.02, RandFrac: 0.05,
		HotBytes: 4096, WarmBytes: 96 * 192, WarmStride: 192, StrideBytes: 128,
		SharedFrac: 0.7,
		LoopLen:    24, DataBranchFrac: 0.3, DataEntropy: 0.1,
		CodeHotBytes: 4096, CodeJumpProb: 0.001,
		ChunkInstr: 5000, ImbalancePct: 0.05,
		MLP: 0.5, DepProb: 0.2,
	}
}

func testLayout(t *testing.T, threads int) *mem.Layout {
	t.Helper()
	l, err := mem.NewLayout(1, threads, 64<<10, 8<<20, 4<<20)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestParamsValidate(t *testing.T) {
	if err := testParams().Validate(); err != nil {
		t.Fatal(err)
	}
	mutations := []func(*Params){
		func(p *Params) { p.LoadFrac = 0.9; p.StoreFrac = 0.9 },
		func(p *Params) { p.LoadFrac = -0.1 },
		func(p *Params) { p.HotFrac, p.WarmFrac, p.SeqFrac, p.StrideFrac, p.RandFrac = 0, 0, 0, 0, 0 },
		func(p *Params) { p.RandFrac = -1 },
		func(p *Params) { p.SharedFrac = 1.5 },
		func(p *Params) { p.LoopLen = 1 },
		func(p *Params) { p.ChunkInstr = 0 },
		func(p *Params) { p.MLP = 1.0 },
		func(p *Params) { p.DepProb = 2 },
		func(p *Params) { p.DataEntropy = -0.5 },
		func(p *Params) { p.CodeJumpProb = 1.5 },
	}
	for i, m := range mutations {
		p := testParams()
		m(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutation %d should invalidate params", i)
		}
	}
}

func TestGeneratorErrors(t *testing.T) {
	l := testLayout(t, 2)
	if _, err := NewGenerator(testParams(), l, 5, 100, 1); err == nil {
		t.Error("tid out of range should fail")
	}
	if _, err := NewGenerator(testParams(), l, 0, 0, 1); err == nil {
		t.Error("zero budget should fail")
	}
	bad := testParams()
	bad.LoopLen = 0
	if _, err := NewGenerator(bad, l, 0, 100, 1); err == nil {
		t.Error("invalid params should fail")
	}
}

func collect(t *testing.T, g *Generator) []Instr {
	t.Helper()
	var out []Instr
	var in Instr
	for g.Next(&in) {
		out = append(out, in)
		if len(out) > 10_000_000 {
			t.Fatal("generator did not terminate")
		}
	}
	return out
}

func TestDeterminism(t *testing.T) {
	l := testLayout(t, 2)
	g1, _ := NewGenerator(testParams(), l, 0, 20000, 42)
	g2, _ := NewGenerator(testParams(), l, 0, 20000, 42)
	s1 := collect(t, g1)
	s2 := collect(t, g2)
	if len(s1) != len(s2) {
		t.Fatalf("lengths differ: %d vs %d", len(s1), len(s2))
	}
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("streams diverge at %d: %+v vs %+v", i, s1[i], s2[i])
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	l := testLayout(t, 2)
	g1, _ := NewGenerator(testParams(), l, 0, 5000, 1)
	g2, _ := NewGenerator(testParams(), l, 0, 5000, 2)
	s1 := collect(t, g1)
	s2 := collect(t, g2)
	same := 0
	for i := range s1 {
		if i < len(s2) && s1[i] == s2[i] {
			same++
		}
	}
	if same == len(s1) {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestBarrierCountEqualAcrossThreads(t *testing.T) {
	// The invariant that keeps teams deadlock-free: every thread of a team
	// (same budget, same ChunkInstr) emits the same number of barriers.
	l := testLayout(t, 4)
	counts := make([]int, 4)
	for tid := 0; tid < 4; tid++ {
		g, err := NewGenerator(testParams(), l, tid, 20000, 7)
		if err != nil {
			t.Fatal(err)
		}
		for _, in := range collect(t, g) {
			if in.Kind == Barrier {
				counts[tid]++
			}
		}
	}
	for tid := 1; tid < 4; tid++ {
		if counts[tid] != counts[0] {
			t.Fatalf("barrier counts differ: %v", counts)
		}
	}
	if counts[0] != 20000/5000 {
		t.Fatalf("barrier count = %d, want %d", counts[0], 20000/5000)
	}
}

func TestBarrierCountProperty(t *testing.T) {
	l := testLayout(t, 4)
	f := func(budgetSeed uint16, seed uint8) bool {
		budget := int64(budgetSeed)%50000 + 1000
		var counts [4]int
		for tid := 0; tid < 4; tid++ {
			g, err := NewGenerator(testParams(), l, tid, budget, uint64(seed))
			if err != nil {
				return false
			}
			var in Instr
			for g.Next(&in) {
				if in.Kind == Barrier {
					counts[tid]++
				}
			}
		}
		return counts[0] == counts[1] && counts[1] == counts[2] && counts[2] == counts[3]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestInstructionMixApproximatesParams(t *testing.T) {
	l := testLayout(t, 1)
	p := testParams()
	g, _ := NewGenerator(p, l, 0, 200000, 3)
	var loads, stores, branches, computes, total int
	for _, in := range collect(t, g) {
		switch in.Kind {
		case Load:
			loads++
		case Store:
			stores++
		case Branch:
			branches++
		case Compute:
			computes++
		default:
			continue
		}
		total++
	}
	lf := float64(loads) / float64(total)
	sf := float64(stores) / float64(total)
	// Branches include the per-window loop-backs on top of BranchFrac.
	bf := float64(branches) / float64(total)
	if math.Abs(lf-p.LoadFrac) > 0.03 {
		t.Errorf("load fraction %v, want ~%v", lf, p.LoadFrac)
	}
	if math.Abs(sf-p.StoreFrac) > 0.03 {
		t.Errorf("store fraction %v, want ~%v", sf, p.StoreFrac)
	}
	wantB := p.BranchFrac + 1/float64(p.LoopLen)
	if math.Abs(bf-wantB) > 0.03 {
		t.Errorf("branch fraction %v, want ~%v", bf, wantB)
	}
	if computes == 0 {
		t.Error("no compute instructions")
	}
}

func TestAddressesStayInLayout(t *testing.T) {
	l := testLayout(t, 4)
	for tid := 0; tid < 4; tid++ {
		g, _ := NewGenerator(testParams(), l, tid, 50000, 11)
		for _, in := range collect(t, g) {
			switch in.Kind {
			case Load, Store:
				if !l.Shared.Contains(in.Addr) && !l.Private[tid].Contains(in.Addr) {
					t.Fatalf("tid %d data address %#x outside its regions", tid, in.Addr)
				}
			case Branch, Compute:
				if !l.Code.Contains(in.PC) {
					t.Fatalf("pc %#x outside code region", in.PC)
				}
			}
		}
	}
}

func TestThreadsUseOwnPrivateRegions(t *testing.T) {
	l := testLayout(t, 2)
	g0, _ := NewGenerator(testParams(), l, 0, 20000, 5)
	for _, in := range collect(t, g0) {
		if in.Kind == Load || in.Kind == Store {
			if l.Private[1].Contains(in.Addr) {
				t.Fatalf("thread 0 touched thread 1's private region: %#x", in.Addr)
			}
		}
	}
}

func TestKindIsPureFunctionOfPC(t *testing.T) {
	// The same PC must always carry the same instruction kind — the
	// property that makes branch sites stable for the predictor.
	l := testLayout(t, 1)
	g, _ := NewGenerator(testParams(), l, 0, 100000, 9)
	kinds := map[uint64]Kind{}
	for _, in := range collect(t, g) {
		if in.Kind == Barrier {
			continue
		}
		// Loop-back branch sites are positional; they are branches at a
		// fixed PC too, so the check holds for all kinds.
		if prev, ok := kinds[in.PC]; ok && prev != in.Kind {
			t.Fatalf("pc %#x changed kind %v -> %v", in.PC, prev, in.Kind)
		}
		kinds[in.PC] = in.Kind
	}
}

func TestWarmSetMatchesFootprint(t *testing.T) {
	// Strides below 64 bytes, and a base that is not line aligned, visit
	// the same line on consecutive steps; each line must appear once, in
	// scan order.
	rows := []struct {
		stride, hotBytes uint64
	}{
		{192, 4096}, // the default stride: 96 steps, all distinct lines
		{8, 4096},
		{40, 4096},
		{96, 4096},
		{40, 4096 + 24},
	}
	l := testLayout(t, 2)
	for _, row := range rows {
		p := testParams()
		p.WarmStride, p.HotBytes = row.stride, row.hotBytes
		g, err := NewGenerator(p, l, 0, 1000, 1)
		if err != nil {
			t.Fatal(err)
		}
		base := l.Private[0].Base + p.HotBytes
		seen := map[uint64]bool{}
		var want []uint64
		for cur := base; cur < base+p.WarmBytes; cur += row.stride {
			if line := cur &^ 63; !seen[line] {
				seen[line] = true
				want = append(want, line)
			}
		}
		ws := g.WarmSet()
		if !slices.Equal(ws, want) {
			t.Errorf("stride %d, hot %d: warm set of %d lines differs from the %d-line reference",
				row.stride, row.hotBytes, len(ws), len(want))
		}
		for _, a := range ws {
			if !l.Private[0].Contains(a) {
				t.Fatalf("stride %d: warm line %#x outside private region", row.stride, a)
			}
		}
	}
}

func TestHotSetCoversHotBytes(t *testing.T) {
	l := testLayout(t, 1)
	p := testParams()
	g, _ := NewGenerator(p, l, 0, 1000, 1)
	hs := g.HotSet()
	if len(hs) != int(p.HotBytes/64) {
		t.Fatalf("hot set %d lines, want %d", len(hs), p.HotBytes/64)
	}
}

func TestBudgetApproximatelyHonored(t *testing.T) {
	l := testLayout(t, 1)
	p := testParams()
	p.ImbalancePct = 0
	g, _ := NewGenerator(p, l, 0, 25000, 1)
	n := 0
	for _, in := range collect(t, g) {
		if in.Kind != Barrier {
			n++
		}
	}
	if n != 25000 {
		t.Fatalf("emitted %d instructions, want exactly 25000 without jitter", n)
	}
}

func TestRemaining(t *testing.T) {
	l := testLayout(t, 1)
	g, _ := NewGenerator(testParams(), l, 0, 10000, 1)
	if g.Remaining() != 10000 {
		t.Fatal("initial remaining wrong")
	}
	var in Instr
	g.Next(&in)
	if g.Remaining() >= 10000 {
		t.Fatal("remaining did not decrease")
	}
}

func TestParamsAccessor(t *testing.T) {
	l := testLayout(t, 1)
	p := testParams()
	g, _ := NewGenerator(p, l, 0, 10, 1)
	if g.Params().LoopLen != p.LoopLen {
		t.Fatal("params accessor wrong")
	}
}
