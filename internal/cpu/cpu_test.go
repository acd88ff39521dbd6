package cpu

import (
	"testing"

	"xeonomp/internal/counters"
	"xeonomp/internal/mem"
	"xeonomp/internal/trace"
)

// testCore builds a one-chip, one-core machine fragment directly, without
// importing internal/machine (which would create an import cycle in tests).
func testCoreParams() trace.Params {
	return trace.Params{
		LoadFrac: 0.3, StoreFrac: 0.1, BranchFrac: 0.1,
		HotFrac: 0.9, SeqFrac: 0.05, RandFrac: 0.05,
		HotBytes: 2048, SharedFrac: 0.5,
		LoopLen: 20, ChunkInstr: 1000,
		MLP: 0.5,
	}
}

func newThread(t *testing.T, name string, layout *mem.Layout, tid int, budget int64, team *Team) *Thread {
	t.Helper()
	gen, err := trace.NewGenerator(testCoreParams(), layout, tid, budget, 1)
	if err != nil {
		t.Fatal(err)
	}
	return NewThread(name, 0, gen, team)
}

func TestLatenciesValidate(t *testing.T) {
	if err := DefaultLatencies().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultLatencies()
	bad.IssuePerCycle = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero issue width should be invalid")
	}
	bad = DefaultLatencies()
	bad.Quantum = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero quantum should be invalid")
	}
}

func TestNewTeamPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewTeam(0)
}

func TestThreadRandDeterministicPerName(t *testing.T) {
	l, _ := mem.NewLayout(1, 1, 4096, 1<<20, 1<<20)
	t1 := newThread(t, "same", l, 0, 10, NewTeam(1))
	t2 := newThread(t, "same", l, 0, 10, NewTeam(1))
	for i := 0; i < 100; i++ {
		if t1.rand() != t2.rand() {
			t.Fatal("thread rand not deterministic by name")
		}
	}
	t3 := newThread(t, "other", l, 0, 10, NewTeam(1))
	diff := false
	for i := 0; i < 10; i++ {
		if t1.rand() != t3.rand() {
			diff = true
		}
	}
	if !diff {
		t.Fatal("different names produced identical rand streams")
	}
}

func TestContextAssignAndClear(t *testing.T) {
	l, _ := mem.NewLayout(1, 2, 4096, 1<<20, 1<<20)
	x := &Context{current: -1}
	if x.Mounted() != nil {
		t.Fatal("empty context has a mounted thread")
	}
	team := NewTeam(2)
	x.Assign(newThread(t, "a", l, 0, 10, team))
	x.Assign(newThread(t, "b", l, 1, 10, team))
	if x.QueueLen() != 2 || x.Mounted() == nil {
		t.Fatal("assign bookkeeping wrong")
	}
	if x.AllDone() {
		t.Fatal("fresh threads reported done")
	}
	x.Clear()
	if x.QueueLen() != 0 || x.Mounted() != nil {
		t.Fatal("clear incomplete")
	}
}

func TestArriveBarrierReleasesTeam(t *testing.T) {
	l, _ := mem.NewLayout(1, 2, 4096, 1<<20, 1<<20)
	team := NewTeam(2)
	a := newThread(t, "a", l, 0, 10, team)
	b := newThread(t, "b", l, 1, 10, team)

	if released := arriveBarrier(a, 100, 0); released {
		t.Fatal("first arrival must not release")
	}
	if a.State != ThreadBarrier {
		t.Fatal("first arrival not parked")
	}
	if released := arriveBarrier(b, 250, 0); !released {
		t.Fatal("last arrival must release")
	}
	if a.State != ThreadRunnable || b.State != ThreadRunnable {
		t.Fatal("team not runnable after release")
	}
	// The early arriver was charged its wait.
	if a.Counters.Get(counters.BarrierCycles) != 150 {
		t.Fatalf("barrier wait = %d, want 150", a.Counters.Get(counters.BarrierCycles))
	}
	if b.Counters.Get(counters.BarrierCycles) != 0 {
		t.Fatalf("last arriver charged %d barrier cycles", b.Counters.Get(counters.BarrierCycles))
	}
	// Reusable for the next phase.
	if released := arriveBarrier(b, 300, 0); released {
		t.Fatal("barrier did not re-arm")
	}
	if released := arriveBarrier(a, 300, 0); !released {
		t.Fatal("second phase did not release")
	}
}

func TestWarmupResetsCounters(t *testing.T) {
	l, _ := mem.NewLayout(1, 1, 4096, 1<<20, 1<<20)
	th := newThread(t, "w", l, 0, 1000, NewTeam(1))
	th.WarmupInstr = 600
	// Simulate retirement bookkeeping the way Step does.
	for i := 0; i < 1000; i++ {
		th.Counters.Inc(counters.Instructions)
		th.retired++
		if th.WarmupInstr > 0 && th.WarmedAt < 0 && th.retired >= th.WarmupInstr {
			th.Counters.Reset()
			th.WarmedAt = 12345
		}
	}
	if th.WarmedAt != 12345 {
		t.Fatal("warmup reset did not trigger")
	}
	if got := th.Counters.Get(counters.Instructions); got != 400 {
		t.Fatalf("post-warmup instructions = %d, want 400", got)
	}
}
