// Package cpu models the Xeon "Paxville" core and its Hyper-Threaded
// hardware contexts. A Core owns the structures the paper lists as shared
// between the two contexts of a core — the execution trace cache, the L1
// data cache, the private-per-core L2, the ITLB/DTLB, the branch prediction
// unit, and the stream prefetcher — and multiplexes issue bandwidth between
// its contexts cycle by cycle, the way Hyper-Threading time-slices the
// front end.
//
// Application threads (internal/cpu.Thread) carry their own instruction
// stream, counter bank and OpenMP team; a hardware Context hosts a run
// queue of threads and time-slices them with a quantum, modeling the Linux
// scheduler behaviour the paper relies on. All latency accounting happens
// here: TLB walks, cache-hierarchy stalls (scaled by the workload's
// memory-level parallelism), branch-flush penalties, trace-cache fill
// bubbles, store-buffer back-pressure, and barrier waits.
package cpu

import (
	"fmt"
	"math"

	"xeonomp/internal/branch"
	"xeonomp/internal/bus"
	"xeonomp/internal/cache"
	"xeonomp/internal/counters"
	"xeonomp/internal/prefetch"
	"xeonomp/internal/tlb"
	"xeonomp/internal/trace"
)

// Latencies collects the exposed-penalty parameters of the core model, in
// core cycles.
type Latencies struct {
	L2Hit          int64 // exposed stall of an L1 miss that hits L2
	TCMiss         int64 // decode bubble on a trace-cache miss
	ITLBWalk       int64 // page-walk penalty, instruction side
	DTLBWalk       int64 // page-walk penalty, data side
	Mispredict     int64 // pipeline flush on branch mispredict
	BTBMiss        int64 // fetch bubble on a taken branch with unknown target
	BarrierRelease int64 // cost of leaving a barrier once released
	IssuePerCycle  int   // micro-ops one context may issue in its cycle
	StoreBuffer    int   // store-buffer entries per context
	SwitchCost     int64 // thread context-switch cost (oversubscribed runs)
	Quantum        int64 // scheduler time slice in cycles

	// SMTSharedMLP scales a thread's memory-level parallelism when the
	// sibling context is active: the Xeon statically partitions the load
	// and store buffers between Hyper-Threaded contexts, halving the
	// reordering window available to each thread.
	SMTSharedMLP float64
	// SMTClash is the probability that an issue by one context delays a
	// simultaneously-ready sibling by a cycle (execution-port contention).
	SMTClash float64
}

// DefaultLatencies returns the calibrated Paxville-like parameters.
func DefaultLatencies() Latencies {
	return Latencies{
		L2Hit:          26,
		TCMiss:         12,
		ITLBWalk:       30,
		DTLBWalk:       30,
		Mispredict:     31, // Prescott-derived pipeline depth
		BTBMiss:        6,
		BarrierRelease: 40,
		IssuePerCycle:  2,
		StoreBuffer:    12,
		SwitchCost:     3000,
		Quantum:        400_000, // ~143 us at 2.8 GHz, in the Linux HZ=250..1000 range scaled down
		SMTSharedMLP:   0.75,
		SMTClash:       0.15,
	}
}

// Validate checks the latency parameters.
func (l Latencies) Validate() error {
	if l.IssuePerCycle <= 0 || l.StoreBuffer <= 0 || l.Quantum <= 0 {
		return fmt.Errorf("cpu: invalid latencies %+v", l)
	}
	return nil
}

// Team is one OpenMP thread team synchronizing at barriers. All threads of
// one program instance share a Team.
type Team struct {
	Size    int
	arrived int
	waiting []*Thread
}

// NewTeam creates a team of n threads.
func NewTeam(n int) *Team {
	if n <= 0 {
		panic("cpu: team size must be positive")
	}
	return &Team{Size: n}
}

// ThreadState is the lifecycle state of an application thread.
type ThreadState int

// Thread states.
const (
	ThreadRunnable ThreadState = iota
	ThreadBarrier              // arrived at a barrier, waiting for the team
	ThreadDone                 // instruction stream exhausted
)

// Thread is one application thread: a stream, a counter bank, and team
// membership. FinishedAt records the cycle its stream ended.
type Thread struct {
	Name     string
	Program  int // program index within the workload (for multi-program runs)
	Gen      *trace.Generator
	Team     *Team
	Counters counters.Set
	State    ThreadState

	// WarmupInstr, when positive, makes the thread zero its counter bank
	// after retiring that many instructions, so derived metrics reflect
	// warm-cache steady state the way a PMU sampling a long run does.
	WarmupInstr int64
	// WarmedAt is the cycle the warmup reset happened (-1 before then).
	WarmedAt int64

	FinishedAt int64

	// mlp and depT cache the two Generator.Params() timing knobs the issue
	// loop reads per instruction. Params returns the full parameter struct
	// by value; copying ~200 bytes twice per instruction was ~10% of a cold
	// study before these were hoisted here (see PERFORMANCE.md). depT is
	// DepProb as a 53-bit integer threshold (see randThreshold): the
	// per-instruction dependency draw compares in the integer domain,
	// skipping the int→float convert of rand().
	mlp  float64
	depT uint64

	retired   int64
	arrivedAt int64
	rngState  uint64
}

// NewThread wraps a generator as a schedulable thread of the given team.
func NewThread(name string, program int, gen *trace.Generator, team *Team) *Thread {
	p := gen.Params()
	return &Thread{
		Name:     name,
		Program:  program,
		Gen:      gen,
		Team:     team,
		WarmedAt: -1,
		mlp:      p.MLP,
		depT:     randThreshold(p.DepProb),
		rngState: hash64(name),
	}
}

// randThreshold converts probability p to the integer threshold q such
// that rand() < p ⟺ randBits() < q, exactly: rand() is float64(z>>11)/2^53
// with the division exact, so the comparison holds iff z>>11 < ⌈p·2^53⌉
// (for integral p·2^53 the strict compare makes ⌈·⌉ the right bound too).
func randThreshold(p float64) uint64 {
	return uint64(math.Ceil(p * (1 << 53)))
}

func hash64(s string) uint64 {
	h := uint64(1469598103934665603)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	if h == 0 {
		h = 1
	}
	return h
}

// rand returns a uniform float64 in [0,1) from the thread's private stream,
// used only for timing decisions (dependency bubbles), never for the
// instruction stream itself.
func (t *Thread) rand() float64 {
	return float64(t.randBits()) / (1 << 53)
}

// randBits returns the raw 53-bit draw behind rand(); comparing it against
// a randThreshold value is exactly equivalent to comparing rand() against
// the probability, without the integer→float conversion.
func (t *Thread) randBits() uint64 {
	t.rngState += 0x9e3779b97f4a7c15
	z := t.rngState
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return z >> 11
}

// Context is one hardware context (logical processor). It owns a run queue
// of application threads and issues for whichever is mounted.
type Context struct {
	Label   string // paper labeling: A0..A7 / B0..B3
	Core    *Core
	Enabled bool

	runq    []*Thread
	current int     // index into runq, -1 when empty
	cur     *Thread // runq[current], cached: mounted() is on every hot path
	done    int     // threads on runq that reached ThreadDone

	readyAt      int64 // next cycle the mounted thread may issue
	sliceEnd     int64 // quantum expiry for the mounted thread
	storeBuf     []int64
	lastFetchLn  uint64
	lastFetchPg  uint64
	fetchPrimed  bool
	barrierBlock bool // mounted thread is barrier-blocked and nothing else is runnable
}

// Core is one physical core with its shared structures.
type Core struct {
	ID       string
	Lat      Latencies
	TC       *cache.Cache
	L1D      *cache.Cache
	L2       *cache.Cache
	ITLB     *tlb.TLB
	DTLB     *tlb.TLB
	BP       *branch.Predictor
	PF       *prefetch.Prefetcher
	FSB      *bus.FSB
	Contexts []*Context

	// PrefetchGate is the maximum FSB queue delay (cycles) at which the
	// prefetcher is still allowed to issue; beyond it demand traffic has
	// priority and prefetches are dropped.
	PrefetchGate int64

	// Peers are the other cores of the machine, for write-invalidate
	// coherence: a store that gains ownership of a line invalidates every
	// remote copy (wired by internal/machine).
	Peers []*Core

	rr int // round-robin pointer over contexts

	// relEpoch counts barrier releases machine-wide: every core of one
	// machine shares the counter (wired by internal/machine via
	// ShareReleaseEpoch). During a solo window only the solo core steps, so
	// a change of the epoch across one of its steps is exactly "a team with
	// a thread on this core released a barrier" — the one cross-context
	// side effect a step can have — detectable with a single load instead
	// of a walk over every team's release count.
	relEpoch *uint64
}

// NewCore assembles a core of one context (HT off) or two (HT on). The
// caller provides the shared structures so the machine model can wire both
// contexts and the chip-level FSB.
func NewCore(id string, lat Latencies, tc, l1d, l2 *cache.Cache, itlb, dtlb *tlb.TLB, bp *branch.Predictor, pf *prefetch.Prefetcher, fsb *bus.FSB, nContexts int) *Core {
	if err := lat.Validate(); err != nil {
		panic(err)
	}
	if nContexts < 1 || nContexts > 2 {
		panic(fmt.Sprintf("cpu: %d contexts per core, want 1 or 2", nContexts))
	}
	c := &Core{
		ID: id, Lat: lat, TC: tc, L1D: l1d, L2: l2,
		ITLB: itlb, DTLB: dtlb, BP: bp, PF: pf, FSB: fsb,
		PrefetchGate: 64,
		relEpoch:     new(uint64),
	}
	for i := 0; i < nContexts; i++ {
		c.Contexts = append(c.Contexts, &Context{Core: c, current: -1})
	}
	return c
}

// Assign appends a thread to the context's run queue.
func (x *Context) Assign(t *Thread) {
	x.runq = append(x.runq, t)
	if t.State == ThreadDone {
		x.done++
	}
	if x.current < 0 {
		x.current = 0
		x.cur = t
	}
}

// QueueLen returns the number of threads (in any state) on the context.
func (x *Context) QueueLen() int { return len(x.runq) }

// Threads returns the context's run queue.
func (x *Context) Threads() []*Thread { return x.runq }

// mounted returns the currently mounted thread, or nil.
func (x *Context) mounted() *Thread { return x.cur }

// Mounted returns the thread currently occupying the context, or nil.
func (x *Context) Mounted() *Thread { return x.mounted() }

// allDone reports whether every thread on the context has finished. The
// done counter is maintained at the single ThreadDone transition in Step
// (plus Assign, for pre-finished threads) so this is O(1) — it runs once
// per Machine advancement per context.
func (x *Context) allDone() bool {
	return x.done == len(x.runq)
}

// AllDone reports whether every thread on the context has finished.
func (x *Context) AllDone() bool { return x.allDone() }

// Clear empties the run queue and resets all per-context machine state.
// The store-buffer backing array is kept (length zeroed) so a recycled
// context does not re-grow it; everything observable is reset.
func (x *Context) Clear() {
	x.runq = nil
	x.current = -1
	x.cur = nil
	x.done = 0
	x.readyAt = 0
	x.sliceEnd = 0
	x.storeBuf = x.storeBuf[:0]
	x.lastFetchLn = 0
	x.lastFetchPg = 0
	x.fetchPrimed = false
	x.barrierBlock = false
}

// switchTo rotates to the next thread that is not Done, preferring runnable
// threads over barrier-blocked ones. Returns false if nothing can run.
// Switching between distinct programs flushes the core TLBs (address-space
// change), as on the real machine.
func (x *Context) switchTo(now int64) bool {
	n := len(x.runq)
	if n == 0 {
		return false
	}
	prev := x.mounted()
	pick := -1
	// First pass: runnable threads after current.
	for i := 1; i <= n; i++ {
		c := (x.current + i) % n
		if x.runq[c].State == ThreadRunnable {
			pick = c
			break
		}
	}
	if pick < 0 {
		x.barrierBlock = true
		return false
	}
	nxt := x.runq[pick]
	if nxt != prev {
		if prev != nil && prev.Program != nxt.Program {
			x.Core.ITLB.Flush()
			x.Core.DTLB.Flush()
		}
		x.readyAt = now + x.Core.Lat.SwitchCost
		x.fetchPrimed = false
	}
	x.current = pick
	x.cur = nxt
	x.sliceEnd = now + x.Core.Lat.Quantum
	x.barrierBlock = false
	return true
}

// ready reports whether the context can issue at cycle now.
func (x *Context) ready(now int64) bool {
	if !x.Enabled || x.barrierBlock {
		return false
	}
	t := x.mounted()
	if t == nil || t.State != ThreadRunnable {
		return false
	}
	return now >= x.readyAt
}

// NextEvent returns the earliest future cycle at which the context could
// possibly issue again, or -1 if it never will (done or blocked on a
// barrier that someone else must release).
func (x *Context) NextEvent(now int64) int64 {
	if !x.Enabled {
		return -1
	}
	t := x.mounted()
	if t == nil || x.allDone() {
		return -1
	}
	if x.barrierBlock || t.State != ThreadRunnable {
		// Blocked until a barrier release elsewhere makes a thread
		// runnable; once that has happened, the context can recover.
		if !x.anyRunnable() {
			return -1
		}
	}
	if x.readyAt > now {
		return x.readyAt
	}
	return now
}

// QuietWake classifies the context for batched clock advancement (see
// internal/machine's advancement contract). Called with the cycle the
// machine is about to advance to, it returns:
//
//   - -1 if the context is inert: disabled, empty, all threads done, or
//     barrier-blocked with no release pending. Stepping it at any cycle is
//     a no-op and it imposes no wake-up.
//   - 0 if the context must be offered the very next cycle, because its
//     step path would MUTATE state whose values depend on the call-time
//     cycle: barrier-release recovery (readyFull clears barrierBlock and
//     may switch threads), or a mounted non-Runnable thread (readyFull
//     calls switchTo, which stamps readyAt/sliceEnd from `now`), or a
//     mounted Runnable thread that is already ready.
//   - w > now if the context is purely stalled until cycle w: mounted
//     thread Runnable, not barrier-blocked, readyAt = w. Every Step offer
//     in [now, w) is provably a read-only no-op (ready() is false and no
//     recovery path triggers), so the machine may jump the clock straight
//     to w without changing any observable state.
//
// This classification is deliberately conservative: any case that is not
// provably a no-op window returns 0, forcing cycle-by-cycle stepping, so
// the optimized engine stays byte-identical with the reference loop.
func (x *Context) QuietWake(now int64) int64 {
	if !x.Enabled {
		return -1
	}
	t := x.mounted()
	if t == nil || x.allDone() {
		return -1
	}
	if x.barrierBlock {
		if !x.anyRunnable() {
			return -1 // parked until a release elsewhere
		}
		return 0 // recovery pending; readyFull must run now
	}
	if t.State != ThreadRunnable {
		return 0 // switchTo would stamp state from the call-time cycle
	}
	if x.readyAt > now {
		return x.readyAt
	}
	return 0
}

// stall charges n stall cycles to the mounted thread and blocks issue.
func (x *Context) stall(t *Thread, now, n int64) {
	if n <= 0 {
		return
	}
	t.Counters.Add(counters.StallCycles, uint64(n))
	if now+n > x.readyAt {
		x.readyAt = now + n
	}
}

// memorySubsystem resolves a data access for thread t at cycle now and
// returns the exposed stall in cycles. write selects store semantics.
func (c *Core) memorySubsystem(x *Context, t *Thread, now int64, addr uint64, write bool) int64 {
	var stall int64

	// DTLB.
	t.Counters.Inc(counters.DTLBAccess)
	if !c.DTLB.Access(addr) {
		t.Counters.Inc(counters.DTLBMiss)
		stall += c.Lat.DTLBWalk
	}

	// L1 data cache.
	t.Counters.Inc(counters.L1DAccess)
	if lr := c.L1D.Lookup(addr, write); lr.Hit {
		if write && !lr.WasDirty {
			// First write to a clean line: gain ownership. A line this
			// core already dirtied cannot have remote copies, so the
			// coherence probe is skipped on the (dominant) dirty-hit path.
			c.invalidatePeers(t, addr, now)
		}
		return stall
	}
	t.Counters.Inc(counters.L1DMiss)

	// L2.
	t.Counters.Inc(counters.L2Access)
	lr := c.L2.Lookup(addr, write)
	if lr.Hit {
		if lr.HitPrefetched {
			t.Counters.Inc(counters.PrefetchUseful)
		}
		c.fillL1(t, addr, write, now)
		if write {
			return stall // stores drain via the store buffer; L2 hit absorbs them
		}
		return stall + c.Lat.L2Hit
	}
	t.Counters.Inc(counters.L2Miss)

	// Miss to memory. Stores go through the store buffer as RFOs and do not
	// stall unless the buffer is full; loads expose latency scaled by MLP.
	line := c.L2.LineAddr(addr)
	c.prefetchOnMiss(t, line, now)
	if write {
		c.invalidatePeers(t, addr, now)
		stall += x.storeMiss(t, now)
	} else {
		done := c.FSB.Issue(now, bus.DemandRead)
		t.Counters.Inc(counters.BusDemandRead)
		t.Counters.Add(counters.MemReadBytes, uint64(c.L2.Config().LineSize))
		mlp := t.mlp
		if c.siblingActive(x) {
			// Load/store buffers are statically partitioned between the
			// contexts when both are active, shrinking the miss-overlap
			// window each thread can sustain.
			mlp *= c.Lat.SMTSharedMLP
		}
		// Overlap hides DRAM access latency, but queueing on a loaded bus
		// delays every outstanding miss and cannot be hidden.
		lat := done - now
		unloaded := c.FSB.UnloadedLatency()
		queue := lat - unloaded
		if queue < 0 {
			queue = 0
		}
		stall += int64(float64(unloaded)*(1-mlp)) + queue
	}
	c.fillL2(t, addr, write, now)
	c.fillL1(t, addr, write, now)
	return stall
}

// storeMiss issues an RFO through the store buffer, returning any stall due
// to a full buffer.
func (x *Context) storeMiss(t *Thread, now int64) int64 {
	c := x.Core
	// Retire completed entries.
	live := x.storeBuf[:0]
	for _, done := range x.storeBuf {
		if done > now {
			live = append(live, done)
		}
	}
	x.storeBuf = live
	var stall int64
	if len(x.storeBuf) >= c.Lat.StoreBuffer {
		oldest := x.storeBuf[0]
		for _, d := range x.storeBuf {
			if d < oldest {
				oldest = d
			}
		}
		if oldest > now {
			stall = oldest - now
		}
		// One entry drains.
		idx := 0
		for i, d := range x.storeBuf {
			if d == oldest {
				idx = i
				break
			}
		}
		x.storeBuf = append(x.storeBuf[:idx], x.storeBuf[idx+1:]...)
	}
	done := c.FSB.Issue(now+stall, bus.RFO)
	t.Counters.Inc(counters.BusRFO)
	t.Counters.Add(counters.MemReadBytes, uint64(c.L2.Config().LineSize))
	x.storeBuf = append(x.storeBuf, done)
	return stall
}

// siblingActive reports whether another context of the core currently has
// an unfinished thread mounted.
func (c *Core) siblingActive(x *Context) bool {
	for _, o := range c.Contexts {
		if o == x || !o.Enabled {
			continue
		}
		if t := o.mounted(); t != nil && !o.allDone() {
			return true
		}
	}
	return false
}

// invalidatePeers removes the line containing addr from every other core's
// caches (write-invalidate coherence). A remote dirty copy is transferred —
// modeled as a posted writeback on the remote chip's FSB — and each remote
// hit costs one invalidation transaction on this core's FSB.
func (c *Core) invalidatePeers(t *Thread, addr uint64, now int64) {
	for _, p := range c.Peers {
		p1, d1 := p.L1D.Invalidate(addr)
		p2, d2 := p.L2.Invalidate(addr)
		if !p1 && !p2 {
			continue
		}
		t.Counters.Inc(counters.BusInvalidate)
		c.FSB.Issue(now, bus.Writeback) // snoop/upgrade occupies the bus like a posted transfer
		if d1 || d2 {
			// Dirty remote data comes back over the remote chip's bus.
			p.FSB.Issue(now, bus.Writeback)
			t.Counters.Add(counters.MemWriteBytes, uint64(c.L2.Config().LineSize))
		}
	}
}

// pollute delays the sibling contexts of x by up to n cycles (shared
// front-end disruption from a flush).
func (c *Core) pollute(x *Context, now, n int64) {
	if n <= 0 {
		return
	}
	for _, o := range c.Contexts {
		if o == x || !o.Enabled {
			continue
		}
		if t := o.mounted(); t == nil || o.allDone() {
			continue
		}
		if o.readyAt < now+n {
			o.readyAt = now + n
		}
	}
}

// fillL2 installs a line in L2, writing back a dirty victim.
func (c *Core) fillL2(t *Thread, addr uint64, write bool, now int64) {
	fr := c.L2.Fill(addr, write, false)
	if fr.Evicted && fr.EvictedDirty {
		c.FSB.Issue(now, bus.Writeback)
		t.Counters.Inc(counters.BusWriteback)
		t.Counters.Add(counters.MemWriteBytes, uint64(c.L2.Config().LineSize))
	}
}

// fillL1 installs a line in L1; a dirty L1 victim is absorbed by L2
// (write-back within the chip, no bus traffic unless L2 evicts later).
func (c *Core) fillL1(t *Thread, addr uint64, write bool, now int64) {
	fr := c.L1D.Fill(addr, write, false)
	if fr.Evicted && fr.EvictedDirty {
		// Write the victim into L2, possibly cascading a bus writeback.
		f2 := c.L2.Fill(fr.EvictedAddr, true, false)
		if f2.Evicted && f2.EvictedDirty {
			c.FSB.Issue(now, bus.Writeback)
			t.Counters.Inc(counters.BusWriteback)
			t.Counters.Add(counters.MemWriteBytes, uint64(c.L2.Config().LineSize))
		}
	}
}

// prefetchOnMiss feeds the stream prefetcher and issues gated prefetches.
func (c *Core) prefetchOnMiss(t *Thread, line uint64, now int64) {
	cands := c.PF.OnMiss(line)
	if len(cands) == 0 {
		return
	}
	for _, p := range cands {
		t.Counters.Inc(counters.PrefetchIssued)
		if c.FSB.QueueDelay(now) > c.PrefetchGate {
			continue // bus busy: drop the prefetch
		}
		if c.L2.Probe(p) {
			continue
		}
		c.FSB.Issue(now, bus.Prefetch)
		t.Counters.Inc(counters.BusPrefetch)
		t.Counters.Add(counters.MemReadBytes, uint64(c.L2.Config().LineSize))
		fr := c.L2.Fill(p, false, true)
		if fr.Evicted && fr.EvictedDirty {
			c.FSB.Issue(now, bus.Writeback)
			t.Counters.Inc(counters.BusWriteback)
			t.Counters.Add(counters.MemWriteBytes, uint64(c.L2.Config().LineSize))
		}
	}
}

// fetch models trace-cache and ITLB behaviour for the instruction at pc.
// Fetch structures are consulted when execution crosses into a new
// trace-cache line or page.
func (c *Core) fetch(x *Context, t *Thread, now int64, pc uint64) int64 {
	var stall int64
	ln := c.TC.LineAddr(pc)
	if x.fetchPrimed && ln == x.lastFetchLn {
		return 0
	}
	pg := c.ITLB.Page(pc)
	if !x.fetchPrimed || pg != x.lastFetchPg {
		t.Counters.Inc(counters.ITLBAccess)
		if !c.ITLB.Access(pc) {
			t.Counters.Inc(counters.ITLBMiss)
			stall += c.Lat.ITLBWalk
		}
	}
	t.Counters.Inc(counters.TCAccess)
	if !c.TC.Lookup(pc, false).Hit {
		t.Counters.Inc(counters.TCMiss)
		c.TC.Fill(pc, false, false)
		stall += c.Lat.TCMiss
	}
	x.lastFetchLn = ln
	x.lastFetchPg = pg
	x.fetchPrimed = true
	return stall
}

// arriveBarrier parks thread t at its team barrier; the last arrival
// releases the whole team. Returns true if the team released immediately.
func arriveBarrier(t *Thread, now, releaseCost int64) bool {
	tm := t.Team
	t.State = ThreadBarrier
	t.arrivedAt = now
	tm.arrived++
	tm.waiting = append(tm.waiting, t)
	if tm.arrived < tm.Size {
		return false
	}
	for _, w := range tm.waiting {
		wait := now - w.arrivedAt
		if wait > 0 {
			w.Counters.Add(counters.BarrierCycles, uint64(wait))
		}
		w.State = ThreadRunnable
	}
	tm.waiting = tm.waiting[:0]
	tm.arrived = 0
	return true
}

// Step lets the core issue for one cycle. It returns true if any micro-op
// was issued. Hyper-Threading is modeled as strict round-robin selection of
// one ready context per cycle; the selected context issues up to
// IssuePerCycle micro-ops.
func (c *Core) Step(now int64) bool {
	n := len(c.Contexts)
	var x *Context
	if n == 1 {
		// Single hardware context (HT off): no arbitration, and rr can
		// only ever be 0, so skip the round-robin scan.
		if c.Contexts[0].readyFull(now) {
			x = c.Contexts[0]
		}
	} else {
		// Hyper-Threading: two contexts, strict round robin.
		a := c.rr
		if cand := c.Contexts[a]; cand.readyFull(now) {
			x = cand
			c.rr = 1 - a
		} else if cand := c.Contexts[1-a]; cand.readyFull(now) {
			x = cand
			c.rr = a
		}
	}
	if x == nil {
		return false
	}
	t := x.mounted()

	// Quantum expiry with other runnable threads present: preempt.
	if now >= x.sliceEnd && len(x.runq) > 1 {
		x.switchTo(now)
		t = x.mounted()
		if t == nil || !x.ready(now) {
			return false
		}
	}

	// Execution-port contention: with the sibling context also ready this
	// cycle, the shared decode/issue resources sometimes halve the group.
	width := c.Lat.IssuePerCycle
	if n > 1 && width > 1 && c.Lat.SMTClash > 0 {
		for _, o := range c.Contexts {
			if o != x && o.ready(now) {
				if t.rand() < c.Lat.SMTClash {
					width = 1
				}
				break
			}
		}
	}

	issued := 0
	gen := t.Gen
	for issued < width {
		// One dispatch on the record kind per instruction: NextKind yields
		// the kind and PC, and the switch below draws the operands
		// (Addr, Branch) in the record's turn.
		kind, pc := gen.NextKind()
		if kind >= trace.Barrier {
			if kind == trace.End {
				t.State = ThreadDone
				t.FinishedAt = now
				x.done++
				x.switchTo(now)
				return issued > 0
			}
			released := arriveBarrier(t, now, c.Lat.BarrierRelease)
			if released {
				*c.relEpoch++
				x.stallNoCount(now, c.Lat.BarrierRelease)
			} else {
				// Try to run something else on this context.
				x.switchTo(now)
			}
			return issued > 0
		}

		stall := c.fetch(x, t, now, pc)
		t.Counters.Inc(counters.Instructions)
		t.retired++
		if t.WarmupInstr > 0 && t.WarmedAt < 0 && t.retired >= t.WarmupInstr {
			t.Counters.Reset()
			t.WarmedAt = now
		}
		issued++

		// A Compute record costs its issue slot only.
		switch kind {
		case trace.Load:
			stall += c.memorySubsystem(x, t, now, gen.Addr(), false)
		case trace.Store:
			stall += c.memorySubsystem(x, t, now, gen.Addr(), true)
		case trace.Branch:
			t.Counters.Inc(counters.BranchRetired)
			taken, target := gen.Branch()
			out := c.BP.Resolve(pc, taken, target)
			if out.Mispredicted {
				t.Counters.Inc(counters.BranchMispredicted)
				stall += c.Lat.Mispredict
				// The flush drains the shared front end: wrong-path
				// micro-ops occupied the trace-cache fill and issue
				// structures the sibling also uses.
				c.pollute(x, now, c.Lat.Mispredict/2)
			} else if out.BTBMiss && taken {
				stall += c.Lat.BTBMiss
			}
		}
		if stall > 0 {
			x.stall(t, now, stall)
			break
		}
		// Dependency bubble ends the issue group.
		if t.depT > 0 && t.randBits() < t.depT {
			x.stallNoCount(now, 1)
			break
		}
	}
	if issued > 0 && x.readyAt <= now {
		x.readyAt = now + 1
	}
	return issued > 0
}

// StepWindow drives context x — which must be the core's only active
// context — from cycle `from` until the window closes, and returns the
// cycle it stopped at. It is the fused fast path for internal/machine's
// solo windows: the per-cycle Step/QuietWake/accrue round-trips of the
// machine's lockstep loop collapse into one tight loop with
// segment-batched cycle accounting.
//
// The loop is cycle-for-cycle equivalent to the lockstep loop (and so to
// the reference engine):
//
//   - bound (earliest off-core wake, -1 for none) and limit (cycle budget,
//     0 for none) close the window at the first cycle where an off-core
//     context could issue or the budget runs out.
//   - After an issuing step the clock jumps straight to x's readyAt when it
//     is purely stalled — the inlined equivalent of QuietWake — capped at
//     bound, and only when the jump start is inside the limit.
//   - After a non-issuing step the clock advances to x's next event, capped
//     at bound; with no event the window closes and the machine resolves
//     done/deadlock at the returned cycle.
//
// watchRelease selects the non-self-contained mode: when a step changes
// the machine-wide release epoch — a barrier release that may have made
// threads on other cores runnable — the window stops with released=true
// and `issued` reporting that step's outcome, and the caller completes the
// cycle exactly as the reference engine would (offering it to the cores
// after this one, then accruing the advancement). A core whose teams are
// all local never needs the probe and passes false.
//
// Cycle accounting matches machine.accrue: each advancement charges the
// post-step mounted, not-Done thread. Because that chargeable thread only
// changes inside Step — only this core steps during a solo window — whole
// segments between changes are charged with a single counter add instead
// of one per advancement.
func (c *Core) StepWindow(x *Context, from, bound, limit int64, watchRelease bool) (now int64, issued, released bool) {
	now = from
	seg := now
	epoch := *c.relEpoch
	var t *Thread // chargeable mounted thread over [seg, now)
	if u := x.cur; u != nil && u.State != ThreadDone {
		t = u
	}
	settle := func(upto int64) {
		if t != nil && upto > seg {
			t.Counters.Add(counters.Cycles, uint64(upto-seg))
		}
		seg = upto
	}
	for {
		if bound >= 0 && now >= bound {
			settle(now)
			return now, false, false
		}
		if limit > 0 && now >= limit {
			settle(now)
			return now, false, false
		}
		if x.done == len(x.runq) {
			settle(now)
			return now, false, false
		}
		issued = c.Step(now)
		if t != nil && t.WarmedAt == now {
			// The warmup threshold fired inside this step: Counters.Reset
			// discarded everything accrued so far, and the reference engine
			// charged all of the pending segment before that reset. Drop it
			// instead of (wrongly) applying it post-reset.
			seg = now
		}
		if watchRelease && *c.relEpoch != epoch {
			// A release escaped the core; the advancement off this cycle is
			// the caller's to charge (post-step states of all cores).
			settle(now)
			return now, issued, true
		}
		u := x.cur
		if u != nil && u.State == ThreadDone {
			u = nil
		}
		if u != t {
			settle(now)
			t = u
		}
		nxt := now + 1
		if !issued {
			ev := x.NextEvent(now)
			if bound >= 0 && (ev < 0 || bound < ev) {
				ev = bound
			}
			if ev < 0 {
				settle(now)
				return now, false, false
			}
			if ev > nxt {
				nxt = ev
			}
		} else if limit <= 0 || nxt < limit {
			// Inlined QuietWake: after an issuing step the context is
			// enabled with a mounted thread; it is purely stalled iff that
			// thread is still Runnable, no barrier recovery is pending, and
			// readyAt is in the future.
			if u != nil && u.State == ThreadRunnable && !x.barrierBlock && x.readyAt > nxt {
				w := x.readyAt
				if bound >= 0 && bound < w {
					w = bound
				}
				nxt = w
			}
		}
		now = nxt
	}
}

// StepWindow2 is StepWindow for a Hyper-Threaded core whose two contexts
// are both active: the same fused solo-window loop, with the segment
// accounting and wake classification carried for both contexts. The window
// semantics, closing conditions, and equivalence argument are identical to
// StepWindow's; arbitration between the contexts stays inside Step, so the
// issue interleaving is untouched.
func (c *Core) StepWindow2(x0, x1 *Context, from, bound, limit int64, watchRelease bool) (now int64, issued, released bool) {
	now = from
	seg := now
	epoch := *c.relEpoch
	chargeable := func(x *Context) *Thread {
		if u := x.cur; u != nil && u.State != ThreadDone {
			return u
		}
		return nil
	}
	t0, t1 := chargeable(x0), chargeable(x1)
	settle := func(upto int64) {
		if upto > seg {
			d := uint64(upto - seg)
			if t0 != nil {
				t0.Counters.Add(counters.Cycles, d)
			}
			if t1 != nil {
				t1.Counters.Add(counters.Cycles, d)
			}
		}
		seg = upto
	}
	for {
		if bound >= 0 && now >= bound {
			settle(now)
			return now, false, false
		}
		if limit > 0 && now >= limit {
			settle(now)
			return now, false, false
		}
		if x0.done == len(x0.runq) && x1.done == len(x1.runq) {
			settle(now)
			return now, false, false
		}
		issued = c.Step(now)
		w0 := t0 != nil && t0.WarmedAt == now
		w1 := t1 != nil && t1.WarmedAt == now
		if w0 || w1 {
			// A warmup reset discards that thread's pending segment (see
			// StepWindow); the sibling's pending charge still applies.
			if now > seg {
				d := uint64(now - seg)
				if t0 != nil && !w0 {
					t0.Counters.Add(counters.Cycles, d)
				}
				if t1 != nil && !w1 {
					t1.Counters.Add(counters.Cycles, d)
				}
			}
			seg = now
		}
		if watchRelease && *c.relEpoch != epoch {
			settle(now)
			return now, issued, true
		}
		u0, u1 := chargeable(x0), chargeable(x1)
		if u0 != t0 || u1 != t1 {
			settle(now)
			t0, t1 = u0, u1
		}
		nxt := now + 1
		if !issued {
			ev := x0.NextEvent(now)
			if e := x1.NextEvent(now); e >= 0 && (ev < 0 || e < ev) {
				ev = e
			}
			if bound >= 0 && (ev < 0 || bound < ev) {
				ev = bound
			}
			if ev < 0 {
				settle(now)
				return now, false, false
			}
			if ev > nxt {
				nxt = ev
			}
		} else if limit <= 0 || nxt < limit {
			// QuietWake over both contexts: 0 forbids the jump, -1
			// imposes nothing, >nxt bounds it.
			q0 := x0.QuietWake(nxt)
			if q0 != 0 {
				q1 := x1.QuietWake(nxt)
				if q1 != 0 {
					best := nxt
					if q0 > nxt {
						best = q0
					}
					if q1 > nxt && (best == nxt || q1 < best) {
						best = q1
					}
					if best > nxt {
						if bound >= 0 && bound < best {
							best = bound
						}
						nxt = best
					}
				}
			}
		}
		now = nxt
	}
}

// readyFull is ready() plus barrier-release recovery: a context whose
// mounted thread was released from a barrier becomes schedulable again.
func (x *Context) readyFull(now int64) bool {
	t := x.cur
	if t == nil {
		return false
	}
	// Fast path: the overwhelmingly common case is a runnable mounted
	// thread with no barrier recovery pending.
	if !x.barrierBlock && t.State == ThreadRunnable {
		return x.Enabled && now >= x.readyAt
	}
	if x.barrierBlock {
		// Re-check: a barrier release elsewhere may have made a thread runnable.
		if !x.anyRunnable() {
			return false
		}
		x.barrierBlock = false
		if t.State != ThreadRunnable {
			x.switchTo(now)
			t = x.mounted()
			if t == nil {
				return false
			}
		}
	}
	if t.State == ThreadBarrier {
		if !x.switchTo(now) {
			return false
		}
	} else if t.State == ThreadDone {
		if !x.switchTo(now) {
			return false
		}
	}
	return x.ready(now)
}

func (x *Context) anyRunnable() bool {
	for _, t := range x.runq {
		if t.State == ThreadRunnable {
			return true
		}
	}
	return false
}

// stallNoCount blocks issue without charging stall-cycle counters (used for
// barrier release and dependency bubbles, which are not PMU stalls).
func (x *Context) stallNoCount(now, n int64) {
	if now+n > x.readyAt {
		x.readyAt = now + n
	}
}

// Prewarm installs the steady-state cache contents for every thread queued
// on the context: hot sets into L1 (and L2, maintaining inclusion of the
// model's fill path), warm footprints into L2. It models the fact that the
// paper's measurements sample minutes of execution, far past cold start.
func (x *Context) Prewarm() {
	c := x.Core
	for _, t := range x.runq {
		t.Gen.ForWarmLines(func(a uint64) {
			c.L2.Fill(a, false, false)
		})
		t.Gen.ForHotLines(func(a uint64) {
			c.L2.Fill(a, false, false)
			c.L1D.Fill(a, false, false)
		})
	}
}

// Done reports whether every thread on every context of the core finished.
func (c *Core) Done() bool {
	for _, x := range c.Contexts {
		if x.Enabled && !x.allDone() {
			return false
		}
	}
	return true
}

// Reset restores the core to power-on state so a recycled core is
// indistinguishable from a freshly built one: caches and TLBs are reset
// including their internal replacement clocks and policy RNG (a plain
// Flush keeps those ticking, which would diverge under the Random
// replacement policy), branch predictor and prefetcher re-initialize, the
// round-robin context-arbitration pointer returns to context 0, and every
// context is cleared and disabled. Contrast with machine.Reset, which
// deliberately preserves arbitration state for back-to-back phases of one
// experiment (see internal/lmbench).
func (c *Core) Reset() {
	c.TC.Reset()
	c.L1D.Reset()
	c.L2.Reset()
	c.ITLB.Reset()
	c.DTLB.Reset()
	c.BP.Reset()
	c.PF.Reset()
	c.rr = 0
	for _, x := range c.Contexts {
		x.Enabled = false
		x.Clear()
	}
}

// ShareReleaseEpoch rewires the core's release-epoch counter to p, so all
// cores of one machine observe every release. Called once at machine build.
func (c *Core) ShareReleaseEpoch(p *uint64) { c.relEpoch = p }

// InvalidatePeersForTest exposes the coherence path for cross-package tests.
func (c *Core) InvalidatePeersForTest(t *Thread, addr uint64, now int64) {
	c.invalidatePeers(t, addr, now)
}
