package machine

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"xeonomp/internal/bus"

	"xeonomp/internal/counters"
	"xeonomp/internal/cpu"
	"xeonomp/internal/mem"
	"xeonomp/internal/trace"
)

func newMachine(t *testing.T) *Machine {
	t.Helper()
	m, err := New(PaxvilleSMP())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func simpleParams() trace.Params {
	return trace.Params{
		LoadFrac: 0.3, StoreFrac: 0.1, BranchFrac: 0.1,
		HotFrac: 0.9, SeqFrac: 0.05, RandFrac: 0.05,
		HotBytes: 2048, SharedFrac: 0.5,
		LoopLen: 20, ChunkInstr: 2000,
		MLP: 0.5,
	}
}

func addThread(t *testing.T, m *Machine, chip, core, ctx int, name string, layout *mem.Layout, tid int, budget int64, team *cpu.Team) *cpu.Thread {
	t.Helper()
	gen, err := trace.NewGenerator(simpleParams(), layout, tid, budget, 1)
	if err != nil {
		t.Fatal(err)
	}
	th := cpu.NewThread(name, 0, gen, team)
	x, err := m.Context(chip, core, ctx)
	if err != nil {
		t.Fatal(err)
	}
	x.Enabled = true
	x.Assign(th)
	return th
}

func TestTopology(t *testing.T) {
	m := newMachine(t)
	if len(m.Chips) != 2 || len(m.Cores()) != 4 || len(m.Contexts()) != 8 {
		t.Fatalf("topology wrong: %d chips %d cores %d contexts",
			len(m.Chips), len(m.Cores()), len(m.Contexts()))
	}
	// Both cores of a chip share the FSB; different chips do not.
	if m.Chips[0].Cores[0].FSB != m.Chips[0].Cores[1].FSB {
		t.Fatal("cores of a chip must share the FSB")
	}
	if m.Chips[0].Cores[0].FSB == m.Chips[1].Cores[0].FSB {
		t.Fatal("chips must have distinct FSBs")
	}
	// Contexts of a core share every core structure.
	c0 := m.Cores()[0]
	if len(c0.Contexts) != 2 {
		t.Fatal("core must have two contexts")
	}
}

func TestContextLookup(t *testing.T) {
	m := newMachine(t)
	x, err := m.Context(1, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if x.Label != "P1C1T1" {
		t.Fatalf("label = %q", x.Label)
	}
	if _, err := m.Context(2, 0, 0); err == nil {
		t.Fatal("out-of-range chip accepted")
	}
	if _, err := m.Context(0, 0, 2); err == nil {
		t.Fatal("out-of-range thread accepted")
	}
}

func TestEnumerationOrderMatchesPaperLabels(t *testing.T) {
	m := newMachine(t)
	// A-enumeration: chip-major, then core, then hardware thread.
	want := []string{"P0C0T0", "P0C0T1", "P0C1T0", "P0C1T1", "P1C0T0", "P1C0T1", "P1C1T0", "P1C1T1"}
	for i, x := range m.Contexts() {
		if x.Label != want[i] {
			t.Fatalf("context %d (%s) label %q, want %q", i, HTLabel(i), x.Label, want[i])
		}
	}
	if HTLabel(3) != "A3" || HTOffLabel(2) != "B2" {
		t.Fatal("paper labels wrong")
	}
}

func TestEnableDisable(t *testing.T) {
	m := newMachine(t)
	m.EnableAll()
	if len(m.Enabled()) != 8 {
		t.Fatal("enable all failed")
	}
	m.DisableAll()
	if len(m.Enabled()) != 0 {
		t.Fatal("disable all failed")
	}
}

func TestRunSingleThread(t *testing.T) {
	m := newMachine(t)
	m.DisableAll()
	l, err := mem.NewLayout(1, 1, 8192, 1<<20, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	th := addThread(t, m, 0, 0, 0, "solo", l, 0, 6000, cpu.NewTeam(1))
	cycles, err := m.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if cycles <= 0 {
		t.Fatal("no cycles elapsed")
	}
	if th.State != cpu.ThreadDone {
		t.Fatal("thread did not finish")
	}
	if th.Counters.Get(counters.Instructions) != 6000 {
		t.Fatalf("retired %d, want 6000", th.Counters.Get(counters.Instructions))
	}
	if th.Counters.Get(counters.Cycles) == 0 {
		t.Fatal("cycle counter empty")
	}
	if th.FinishedAt <= 0 || th.FinishedAt > cycles {
		t.Fatalf("finish time %d outside run (%d)", th.FinishedAt, cycles)
	}
}

func TestRunTeamAcrossCores(t *testing.T) {
	m := newMachine(t)
	m.DisableAll()
	l, err := mem.NewLayout(1, 4, 8192, 1<<20, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	team := cpu.NewTeam(4)
	var threads []*cpu.Thread
	coords := [][3]int{{0, 0, 0}, {0, 1, 0}, {1, 0, 0}, {1, 1, 0}}
	for tid, c := range coords {
		threads = append(threads, addThread(t, m, c[0], c[1], c[2], "t", l, tid, 8000, team))
	}
	if _, err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	for tid, th := range threads {
		if th.State != cpu.ThreadDone {
			t.Fatalf("thread %d not done", tid)
		}
	}
}

func TestRunSMTSharedCore(t *testing.T) {
	m := newMachine(t)
	m.DisableAll()
	l, err := mem.NewLayout(1, 2, 8192, 1<<20, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	team := cpu.NewTeam(2)
	a := addThread(t, m, 0, 0, 0, "a", l, 0, 8000, team)
	b := addThread(t, m, 0, 0, 1, "b", l, 1, 8000, team)
	wall, err := m.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if a.State != cpu.ThreadDone || b.State != cpu.ThreadDone {
		t.Fatal("SMT pair did not finish")
	}
	// Two contexts share issue bandwidth: the run must take longer than a
	// single thread of the same budget but less than the serial sum.
	m2 := newMachine(t)
	m2.DisableAll()
	l2, _ := mem.NewLayout(1, 1, 8192, 1<<20, 1<<20)
	solo := addThread(t, m2, 0, 0, 0, "solo", l2, 0, 8000, cpu.NewTeam(1))
	soloWall, err := m2.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	_ = solo
	if wall <= soloWall {
		t.Fatalf("SMT pair (%d) should be slower than one thread (%d)", wall, soloWall)
	}
	if wall >= 2*soloWall {
		t.Fatalf("SMT pair (%d) should be faster than fully serialized (%d)", wall, 2*soloWall)
	}
}

func TestRunTimeslicedOversubscription(t *testing.T) {
	m := newMachine(t)
	m.DisableAll()
	// Two independent single-thread programs on ONE context: the serial
	// multi-program case; the context must time-slice them.
	l1, _ := mem.NewLayout(1, 1, 8192, 1<<20, 1<<20)
	l2, _ := mem.NewLayout(2, 1, 8192, 1<<20, 1<<20)
	a := addThread(t, m, 0, 0, 0, "p0", l1, 0, 6000, cpu.NewTeam(1))
	gen, err := trace.NewGenerator(simpleParams(), l2, 0, 6000, 2)
	if err != nil {
		t.Fatal(err)
	}
	b := cpu.NewThread("p1", 1, gen, cpu.NewTeam(1))
	x, _ := m.Context(0, 0, 0)
	x.Assign(b)
	if _, err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	if a.State != cpu.ThreadDone || b.State != cpu.ThreadDone {
		t.Fatal("time-sliced threads did not finish")
	}
}

func TestRunDeadlockDetected(t *testing.T) {
	m := newMachine(t)
	m.DisableAll()
	l, _ := mem.NewLayout(1, 2, 8192, 1<<20, 1<<20)
	// Team of two, but only one thread assigned: its first barrier can
	// never be released.
	team := cpu.NewTeam(2)
	addThread(t, m, 0, 0, 0, "lonely", l, 0, 50000, team)
	_, err := m.Run(0)
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("expected deadlock, got %v", err)
	}
}

func TestRunCycleLimit(t *testing.T) {
	m := newMachine(t)
	m.DisableAll()
	l, _ := mem.NewLayout(1, 1, 8192, 1<<20, 1<<20)
	addThread(t, m, 0, 0, 0, "long", l, 0, 1_000_000, cpu.NewTeam(1))
	_, err := m.Run(100)
	if !errors.Is(err, ErrCycleLimit) {
		t.Fatalf("expected cycle limit, got %v", err)
	}
}

func TestRunEmptyMachine(t *testing.T) {
	m := newMachine(t)
	m.DisableAll()
	cycles, err := m.Run(0)
	if err != nil || cycles != 0 {
		t.Fatalf("empty run = %d, %v", cycles, err)
	}
}

func TestReset(t *testing.T) {
	m := newMachine(t)
	m.DisableAll()
	l, _ := mem.NewLayout(1, 1, 8192, 1<<20, 1<<20)
	addThread(t, m, 0, 0, 0, "x", l, 0, 5000, cpu.NewTeam(1))
	if _, err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	m.Reset()
	if m.Clock() != 0 {
		t.Fatal("clock not reset")
	}
	if m.Mem.ReadBytes() != 0 {
		t.Fatal("memory counters not reset")
	}
	for _, c := range m.Cores() {
		if c.L1D.ValidLines() != 0 || c.L2.ValidLines() != 0 {
			t.Fatal("caches not flushed")
		}
		for _, x := range c.Contexts {
			if x.QueueLen() != 0 {
				t.Fatal("run queues not cleared")
			}
		}
	}
	// The machine is reusable after reset.
	l2, _ := mem.NewLayout(1, 1, 8192, 1<<20, 1<<20)
	addThread(t, m, 0, 0, 0, "y", l2, 0, 1000, cpu.NewTeam(1))
	if _, err := m.Run(0); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicWallClock(t *testing.T) {
	run := func() int64 {
		m := newMachine(t)
		m.DisableAll()
		l, _ := mem.NewLayout(1, 2, 8192, 1<<20, 1<<20)
		team := cpu.NewTeam(2)
		addThread(t, m, 0, 0, 0, "a", l, 0, 10000, team)
		addThread(t, m, 0, 1, 0, "b", l, 1, 10000, team)
		w, err := m.Run(0)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	if run() != run() {
		t.Fatal("simulation not deterministic")
	}
}

func TestConfigValidation(t *testing.T) {
	bad := PaxvilleSMP()
	bad.Chips = 0
	if _, err := New(bad); err == nil {
		t.Error("zero chips accepted")
	}
	bad = PaxvilleSMP()
	bad.FSBBandwidth = 0
	if _, err := New(bad); err == nil {
		t.Error("zero FSB bandwidth accepted")
	}
	bad = PaxvilleSMP()
	bad.L1D.Size = 1000 // not a power of two
	if _, err := New(bad); err == nil {
		t.Error("bad cache config accepted")
	}
}

func TestPrefetchGateOverride(t *testing.T) {
	cfg := PaxvilleSMP()
	cfg.PrefetchGate = -1
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range m.Cores() {
		if c.PrefetchGate != -1 {
			t.Fatal("prefetch gate override not applied")
		}
	}
}

func TestSampler(t *testing.T) {
	m := newMachine(t)
	m.DisableAll()
	l, _ := mem.NewLayout(1, 1, 8192, 1<<20, 1<<20)
	addThread(t, m, 0, 0, 0, "sampled", l, 0, 50000, cpu.NewTeam(1))
	s, err := NewSampler(10_000)
	if err != nil {
		t.Fatal(err)
	}
	m.SetSampler(s)
	wall, err := m.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Samples) == 0 {
		t.Fatal("no samples collected")
	}
	var total uint64
	for i, smp := range s.Samples {
		if smp.End-smp.Start != 10_000 {
			t.Fatalf("sample %d window %d, want 10000", i, smp.End-smp.Start)
		}
		if i > 0 && smp.Start != s.Samples[i-1].End {
			t.Fatalf("samples not contiguous at %d", i)
		}
		total += smp.Counters.Get(counters.Instructions)
		if m := smp.Metrics(); m.CPI < 0 {
			t.Fatal("sample metrics malformed")
		}
	}
	if total == 0 || total > 50000 {
		t.Fatalf("sampled instruction total %d implausible", total)
	}
	if s.Samples[len(s.Samples)-1].End > wall+10_000 {
		t.Fatal("samples extend past the run")
	}
}

func TestSamplerValidation(t *testing.T) {
	if _, err := NewSampler(0); err == nil {
		t.Fatal("zero interval accepted")
	}
}

func TestCoherenceInvalidation(t *testing.T) {
	// A line read by core 0 and then written by core 1 must disappear from
	// core 0's caches, and the writer must count an invalidation.
	m := newMachine(t)
	c0 := m.Cores()[0]
	c1 := m.Cores()[1]
	l, _ := mem.NewLayout(1, 2, 8192, 1<<20, 1<<20)
	team := cpu.NewTeam(2)
	gen, err := trace.NewGenerator(simpleParams(), l, 0, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	writer := cpu.NewThread("writer", 0, gen, team)

	const addr = uint64(0x5000)
	c0.L1D.Fill(addr, false, false)
	c0.L2.Fill(addr, false, false)
	if !c0.L1D.Probe(addr) {
		t.Fatal("setup failed")
	}
	c1.InvalidatePeersForTest(writer, addr, 0)
	if c0.L1D.Probe(addr) || c0.L2.Probe(addr) {
		t.Fatal("remote copies survived the invalidation")
	}
	if writer.Counters.Get(counters.BusInvalidate) != 1 {
		t.Fatalf("invalidation count = %d, want 1", writer.Counters.Get(counters.BusInvalidate))
	}
	// Second invalidation of the same (now absent) line is free.
	c1.InvalidatePeersForTest(writer, addr, 0)
	if writer.Counters.Get(counters.BusInvalidate) != 1 {
		t.Fatal("invalidation counted for absent remote line")
	}
}

func TestCoherenceDirtyRemoteWritesBack(t *testing.T) {
	m := newMachine(t)
	c0 := m.Cores()[0] // chip 0
	c1 := m.Cores()[2] // chip 1: distinct FSB, so the writeback is attributable
	l, _ := mem.NewLayout(1, 1, 8192, 1<<20, 1<<20)
	gen, err := trace.NewGenerator(simpleParams(), l, 0, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	writer := cpu.NewThread("w", 0, gen, cpu.NewTeam(1))

	const addr = uint64(0x9000)
	c0.L2.Fill(addr, true, false) // dirty remote copy
	before := c0.FSB.Transactions(bus.Writeback)
	c1.InvalidatePeersForTest(writer, addr, 0)
	if got := c0.FSB.Transactions(bus.Writeback); got != before+1 {
		t.Fatalf("dirty remote data not written back: %d -> %d", before, got)
	}
}

func TestConfigJSONRoundTrip(t *testing.T) {
	orig := PaxvilleSMP()
	var buf bytes.Buffer
	if err := orig.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadConfig(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded != orig {
		t.Fatalf("round trip changed the config:\n%+v\nvs\n%+v", loaded, orig)
	}
	// The loaded config must build a working machine.
	if _, err := New(loaded); err != nil {
		t.Fatal(err)
	}
}

func TestLoadConfigRejectsInvalid(t *testing.T) {
	if _, err := LoadConfig(strings.NewReader(`{"Chips": 0}`)); err == nil {
		t.Fatal("invalid config accepted")
	}
	if _, err := LoadConfig(strings.NewReader(`{"NotAField": 1}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
	if _, err := LoadConfig(strings.NewReader(`garbage`)); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestPrestoniaPreset(t *testing.T) {
	cfg := PrestoniaSMP()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Cores()) != 2 || len(m.Contexts()) != 4 {
		t.Fatalf("Prestonia topology wrong: %d cores, %d contexts", len(m.Cores()), len(m.Contexts()))
	}
	// Slower platform: less FSB bandwidth and higher latency than Paxville.
	pax := PaxvilleSMP()
	if cfg.FSBBandwidth >= pax.FSBBandwidth {
		t.Fatal("Prestonia FSB should be slower")
	}
	if cfg.Mem.LatencyNs <= pax.Mem.LatencyNs {
		t.Fatal("Prestonia memory should be slower")
	}
}
