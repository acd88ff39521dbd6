package machine

import (
	"testing"

	"xeonomp/internal/counters"
	"xeonomp/internal/cpu"
	"xeonomp/internal/mem"
)

// poolRun executes one deterministic single-thread workload on m and
// returns the wall cycles and the thread's full counter set.
func poolRun(t *testing.T, m *Machine) (int64, counters.Set) {
	t.Helper()
	m.DisableAll()
	l, err := mem.NewLayout(1, 1, 8192, 1<<20, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	th := addThread(t, m, 0, 0, 0, "pooled", l, 0, 6000, cpu.NewTeam(1))
	cycles, err := m.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	return cycles, th.Counters
}

// dirty runs a different workload shape (two threads, HT-shared core) so
// the machine's caches, TLBs, predictors and RNGs are far from power-on
// state before the pool recycles it.
func dirty(t *testing.T, m *Machine) {
	t.Helper()
	m.DisableAll()
	l, err := mem.NewLayout(2, 2, 65536, 1<<20, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	team := cpu.NewTeam(2)
	addThread(t, m, 0, 0, 0, "dirty0", l, 0, 9000, team)
	addThread(t, m, 0, 0, 1, "dirty1", l, 1, 9000, team)
	if _, err := m.Run(0); err != nil {
		t.Fatal(err)
	}
}

// TestPooledMachineDeterminism pins the pool's core guarantee: a machine
// recycled through Put/Get is bit-for-bit indistinguishable from a fresh
// New — identical wall cycles and identical counter values for the same
// workload — even after an unrelated run has dirtied every model.
// internal/core relies on this when it serves every study cell from the
// package-level pool.
func TestPooledMachineDeterminism(t *testing.T) {
	cfg := PaxvilleSMP()

	fresh, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantCycles, wantCounters := poolRun(t, fresh)

	p := NewPool()
	m, err := p.Get(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dirty(t, m)
	p.Put(m)

	got, err := p.Get(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got != m {
		t.Fatal("pool built a new machine instead of recycling")
	}
	gotCycles, gotCounters := poolRun(t, got)

	if gotCycles != wantCycles {
		t.Fatalf("recycled machine ran %d cycles, fresh ran %d", gotCycles, wantCycles)
	}
	if gotCounters != wantCounters {
		for _, ev := range counters.Events() {
			if g, w := gotCounters.Get(ev), wantCounters.Get(ev); g != w {
				t.Errorf("counter %v: recycled %d, fresh %d", ev, g, w)
			}
		}
		t.Fatal("recycled machine diverged from fresh machine")
	}
}

// TestPoolGetPutNoAllocs is the allocation-regression guard on the pooled
// hot path: once a machine exists for a config, a Get/Put cycle must not
// allocate — ResetHard sweeps existing arrays in place. A regression here
// means some model's Reset started rebuilding state instead of rewinding
// it, which silently restores the per-cell allocation cost the pool exists
// to remove.
func TestPoolGetPutNoAllocs(t *testing.T) {
	cfg := PaxvilleSMP()
	p := NewPool()
	m, err := p.Get(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p.Put(m)

	avg := testing.AllocsPerRun(20, func() {
		m, err := p.Get(cfg)
		if err != nil {
			t.Fatal(err)
		}
		p.Put(m)
	})
	if avg > 0.5 {
		t.Fatalf("pool Get/Put allocates %.1f objects per cycle, want 0", avg)
	}
}

// TestPutDropsThreads checks that a machine parked in the pool holds no
// thread of its last run: the solo-window scratch would otherwise keep
// those threads, their generators and their programs' code-site tables
// alive for as long as the machine stays pooled.
func TestPutDropsThreads(t *testing.T) {
	p := NewPool()
	m, err := p.Get(PaxvilleSMP())
	if err != nil {
		t.Fatal(err)
	}
	m.DisableAll()
	l, err := mem.NewLayout(1, 4, 8192, 1<<20, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	team := cpu.NewTeam(4)
	for tid, c := range [][3]int{{0, 0, 0}, {0, 1, 0}, {1, 0, 0}, {1, 1, 0}} {
		addThread(t, m, c[0], c[1], c[2], "t", l, tid, 8000, team)
	}
	if _, err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	held := func() int {
		n := 0
		for _, th := range m.soloAcc[:cap(m.soloAcc)] {
			if th != nil {
				n++
			}
		}
		return n
	}
	if held() == 0 {
		t.Fatal("the run entered no solo window with off-core threads; the test checks nothing")
	}
	p.Put(m)
	if n := held(); n != 0 {
		t.Fatalf("pooled machine still references %d threads of its last run", n)
	}
}
