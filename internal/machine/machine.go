// Package machine assembles the full simulated platform of the paper: a
// Dell PowerEdge 2850-like SMP with two dual-core 2.8 GHz Hyper-Threaded
// Xeon "Paxville" chips, per-core trace cache / L1D / private 1 MB L2,
// shared-per-core TLBs and branch predictor, one front-side bus per chip,
// and a shared dual-channel memory controller. It also contains the cycle
// engine that advances all cores in lockstep with event-driven clock
// jumps — across globally-stalled windows, across per-context quiet
// windows, and through fused single-core solo windows (see the
// advancement contract on Machine.Run) — plus the machine Pool that
// recycles fully-built platforms between experiment cells. Every
// advancement shortcut is byte-identity-preserving by construction; see
// PERFORMANCE.md for the ground rules and the measured effect.
package machine

import (
	"errors"
	"fmt"

	"xeonomp/internal/branch"
	"xeonomp/internal/bus"
	"xeonomp/internal/cache"
	"xeonomp/internal/counters"
	"xeonomp/internal/cpu"
	"xeonomp/internal/obs"
	"xeonomp/internal/prefetch"
	"xeonomp/internal/tlb"
	"xeonomp/internal/units"
)

// Process-wide observability series (see internal/obs): cycle-engine
// throughput, for judging simulator speed from a -metrics-out snapshot.
var (
	obsRuns        = obs.NewCounter(obs.MetricMachineRuns)
	obsCycles      = obs.NewCounter(obs.MetricMachineCycles)
	obsCyclesPerWs = obs.NewGauge(obs.MetricMachineCyclesPerWs)
)

// Config describes a full machine.
type Config struct {
	Chips           int
	CoresPerChip    int
	ContextsPerCore int

	Freq units.Frequency

	TraceCache cache.Config
	L1D        cache.Config
	L2         cache.Config
	ITLB       tlb.Config
	DTLB       tlb.Config
	Branch     branch.Config
	Prefetch   prefetch.Config

	FSBBandwidth float64 // effective bytes/second per chip
	Mem          bus.MemConfig

	Lat cpu.Latencies

	// PrefetchGate overrides the cores' prefetch admission threshold (the
	// maximum FSB queue delay at which prefetches are still issued).
	// 0 keeps the default; a negative value disables prefetching.
	PrefetchGate int64
}

// Validate checks the machine configuration.
func (c Config) Validate() error {
	if c.Chips <= 0 || c.CoresPerChip <= 0 || c.ContextsPerCore <= 0 {
		return fmt.Errorf("machine: bad topology %d/%d/%d", c.Chips, c.CoresPerChip, c.ContextsPerCore)
	}
	if c.Freq <= 0 {
		return fmt.Errorf("machine: frequency %v", c.Freq)
	}
	for _, cc := range []cache.Config{c.TraceCache, c.L1D, c.L2} {
		if err := cc.Validate(); err != nil {
			return err
		}
	}
	if err := c.ITLB.Validate(); err != nil {
		return err
	}
	if err := c.DTLB.Validate(); err != nil {
		return err
	}
	if err := c.Branch.Validate(); err != nil {
		return err
	}
	if err := c.Prefetch.Validate(); err != nil {
		return err
	}
	if c.FSBBandwidth <= 0 {
		return fmt.Errorf("machine: FSB bandwidth %g", c.FSBBandwidth)
	}
	if err := c.Mem.Validate(); err != nil {
		return err
	}
	return c.Lat.Validate()
}

// PaxvilleSMP returns the paper's platform: 2 chips x 2 cores x 2 contexts
// at 2.8 GHz, 16 KiB L1D and trace cache per core, private 1 MiB L2 per
// core, one FSB per chip calibrated to 3.57 GB/s effective read bandwidth,
// and a dual-channel controller calibrated to the paper's 4.43 GB/s
// aggregate and 136.85 ns unloaded latency.
func PaxvilleSMP() Config {
	const freq = units.Frequency(2.8 * units.GHz)
	const line = 64
	return Config{
		Chips:           2,
		CoresPerChip:    2,
		ContextsPerCore: 2,
		Freq:            freq,
		TraceCache:      cache.Config{Name: "TC", Size: 16 * units.KiB, LineSize: line, Assoc: 8},
		L1D:             cache.Config{Name: "L1D", Size: 16 * units.KiB, LineSize: line, Assoc: 8},
		L2:              cache.Config{Name: "L2", Size: 1 * units.MiB, LineSize: line, Assoc: 8},
		ITLB:            tlb.Config{Name: "ITLB", Entries: 64, Assoc: 4, PageSize: 4096},
		DTLB:            tlb.Config{Name: "DTLB", Entries: 64, Assoc: 4, PageSize: 4096},
		Branch:          branch.Config{PHTBits: 12, HistoryBits: 10, BTBEntries: 2048},
		Prefetch:        prefetch.Config{Streams: 8, Degree: 2, LineSize: line, PageSize: 4096, MaxStride: 2},
		FSBBandwidth:    3.57 * units.GB,
		Mem: bus.MemConfig{
			Channels:         2,
			ChannelBandwidth: 4.43 * units.GB / 2,
			LatencyNs:        136.85,
			LineSize:         line,
			Freq:             freq,
		},
		Lat: cpu.DefaultLatencies(),
	}
}

// PrestoniaSMP returns the authors' earlier platform (their IOSCA'05 study,
// the paper's reference [3]): a two-way SMP of single-core Hyper-Threaded
// 3.0 GHz Xeons with 512 KiB L2 and a 533 MHz front-side bus. The paper
// argues HT efficiency improved on the newer box "most likely due to the
// improvements in memory bus speed"; comparing SMT speedups across the two
// presets reproduces that claim.
func PrestoniaSMP() Config {
	const freq = units.Frequency(3.0 * units.GHz)
	const line = 64
	return Config{
		Chips:           2,
		CoresPerChip:    1,
		ContextsPerCore: 2,
		Freq:            freq,
		TraceCache:      cache.Config{Name: "TC", Size: 16 * units.KiB, LineSize: line, Assoc: 8},
		L1D:             cache.Config{Name: "L1D", Size: 8 * units.KiB, LineSize: line, Assoc: 4},
		L2:              cache.Config{Name: "L2", Size: 512 * units.KiB, LineSize: line, Assoc: 8},
		ITLB:            tlb.Config{Name: "ITLB", Entries: 64, Assoc: 4, PageSize: 4096},
		DTLB:            tlb.Config{Name: "DTLB", Entries: 64, Assoc: 4, PageSize: 4096},
		Branch:          branch.Config{PHTBits: 12, HistoryBits: 10, BTBEntries: 2048},
		Prefetch:        prefetch.Config{Streams: 8, Degree: 2, LineSize: line, PageSize: 4096, MaxStride: 2},
		FSBBandwidth:    2.1 * units.GB, // 533 MHz FSB, protocol overhead folded in
		Mem: bus.MemConfig{
			Channels:         2,
			ChannelBandwidth: 2.6 * units.GB / 2,
			LatencyNs:        180,
			LineSize:         line,
			Freq:             freq,
		},
		Lat: cpu.DefaultLatencies(),
	}
}

// Chip is one physical package: cores sharing a front-side bus.
type Chip struct {
	ID    int
	FSB   *bus.FSB
	Cores []*cpu.Core
}

// Machine is the assembled platform.
type Machine struct {
	Cfg   Config
	Mem   *bus.Memory
	Chips []*Chip

	cores    []*cpu.Core
	contexts []*cpu.Context // flattened, HT enumeration order
	clock    int64
	sampler  *Sampler

	// Reusable scratch for runSolo (per-window context/thread sets), so
	// entering a solo window costs no allocation.
	soloXs  []*cpu.Context
	soloAcc []*cpu.Thread

	// relEpoch is the machine-wide barrier-release counter shared with
	// every core (cpu.Core.ShareReleaseEpoch). Solo windows snapshot it and
	// detect escaping releases with one load per step.
	relEpoch *uint64
}

// New builds a machine from cfg. All contexts start disabled; apply a
// configuration (internal/config) or call EnableAll.
func New(cfg Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Machine{Cfg: cfg, Mem: bus.NewMemory(cfg.Mem)}
	for p := 0; p < cfg.Chips; p++ {
		fsb := bus.NewFSB(bus.FSBConfig{
			Name:      fmt.Sprintf("fsb%d", p),
			Bandwidth: cfg.FSBBandwidth,
			LineSize:  cfg.Mem.LineSize,
			Freq:      cfg.Freq,
		}, m.Mem)
		chip := &Chip{ID: p, FSB: fsb}
		for c := 0; c < cfg.CoresPerChip; c++ {
			id := fmt.Sprintf("P%dC%d", p, c)
			core := cpu.NewCore(id, cfg.Lat,
				cache.New(named(cfg.TraceCache, id)),
				cache.New(named(cfg.L1D, id)),
				cache.New(named(cfg.L2, id)),
				tlb.New(cfg.ITLB), tlb.New(cfg.DTLB),
				branch.New(cfg.Branch), prefetch.New(cfg.Prefetch),
				fsb, cfg.ContextsPerCore)
			if cfg.PrefetchGate != 0 {
				core.PrefetchGate = cfg.PrefetchGate
			}
			for t, x := range core.Contexts {
				x.Label = fmt.Sprintf("P%dC%dT%d", p, c, t)
				m.contexts = append(m.contexts, x)
				_ = t
			}
			chip.Cores = append(chip.Cores, core)
			m.cores = append(m.cores, core)
		}
		m.Chips = append(m.Chips, chip)
	}
	// Wire write-invalidate coherence: every core sees every other core.
	for _, a := range m.cores {
		for _, b := range m.cores {
			if a != b {
				a.Peers = append(a.Peers, b)
			}
		}
	}
	// One release-epoch counter for the whole machine, so a solo window can
	// detect any escaping barrier release with a single load.
	m.relEpoch = new(uint64)
	for _, c := range m.cores {
		c.ShareReleaseEpoch(m.relEpoch)
	}
	return m, nil
}

func named(c cache.Config, core string) cache.Config {
	c.Name = core + "." + c.Name
	return c
}

// Context returns the hardware context at (chip, core, thread).
func (m *Machine) Context(chip, core, thread int) (*cpu.Context, error) {
	if chip < 0 || chip >= m.Cfg.Chips || core < 0 || core >= m.Cfg.CoresPerChip ||
		thread < 0 || thread >= m.Cfg.ContextsPerCore {
		return nil, fmt.Errorf("machine: no context (%d,%d,%d)", chip, core, thread)
	}
	idx := (chip*m.Cfg.CoresPerChip+core)*m.Cfg.ContextsPerCore + thread
	return m.contexts[idx], nil
}

// Contexts returns all hardware contexts in HT enumeration order
// (chip-major, then core, then thread): A0..A7 on the paper's box.
func (m *Machine) Contexts() []*cpu.Context { return m.contexts }

// Cores returns all cores, chip-major.
func (m *Machine) Cores() []*cpu.Core { return m.cores }

// HTLabel returns the paper's HT-enabled label (A0..) for flat index i.
func HTLabel(i int) string { return fmt.Sprintf("A%d", i) }

// HTOffLabel returns the paper's HT-disabled label (B0..) for the i-th core.
func HTOffLabel(i int) string { return fmt.Sprintf("B%d", i) }

// DisableAll disables every context.
func (m *Machine) DisableAll() {
	for _, x := range m.contexts {
		x.Enabled = false
	}
}

// EnableAll enables every context.
func (m *Machine) EnableAll() {
	for _, x := range m.contexts {
		x.Enabled = true
	}
}

// Enabled returns the enabled contexts in enumeration order — the logical
// processors the OS scheduler may use.
func (m *Machine) Enabled() []*cpu.Context {
	var out []*cpu.Context
	for _, x := range m.contexts {
		if x.Enabled {
			out = append(out, x)
		}
	}
	return out
}

// Clock returns the current cycle.
func (m *Machine) Clock() int64 { return m.clock }

// ErrDeadlock is returned when no context can ever issue again but threads
// remain unfinished (a barrier that can never be released, e.g. a team
// thread that was never assigned to an enabled context).
var ErrDeadlock = errors.New("machine: deadlock, unfinished threads but no runnable context")

// ErrCycleLimit is returned when the run exceeds the cycle budget.
var ErrCycleLimit = errors.New("machine: cycle limit exceeded")

// Run advances the machine until every assigned thread has finished, or
// until limit cycles have elapsed (limit <= 0 means no limit). It returns
// the cycle count at completion.
//
// # Advancement contract
//
// The engine advances a single global clock. Each iteration offers one
// issue cycle to every core that has work (round-robin arbitration between
// the core's contexts happens inside cpu.Core.Step), then picks the next
// clock value:
//
//   - If no core issued, the clock jumps to the earliest cycle any context
//     reports it could issue again (cpu.Context.NextEvent) — the original
//     globally-stalled jump. By this point every context has already been
//     offered the cycle, so any call-time mutation (barrier recovery,
//     thread switches) has happened and the jump is safe.
//   - If some core issued and no sampler is attached, the engine
//     additionally consults cpu.Context.QuietWake for batched advancement:
//     when every context with unfinished work is either inert or purely
//     stalled until a known future cycle, the clock jumps straight to the
//     earliest such wake-up. QuietWake only reports a window when every
//     skipped Step offer would be a read-only no-op, so the jump cannot
//     change observable state; any context whose step path would mutate
//     state (switchTo and barrier recovery stamp readyAt/sliceEnd from the
//     call-time cycle) forces cycle-by-cycle stepping instead.
//   - When exactly one core has steppable work — every cycle of a serial
//     baseline, and every memory-stall window that leaves one core
//     runnable — the engine enters a solo window (runSolo): only that core
//     is stepped until the earliest cycle an off-core context could wake,
//     with off-core threads' cycle counters charged in one segment. Solo
//     windows of at most two contexts run in the fused core-level loops
//     cpu.Core.StepWindow / StepWindow2, which batch the per-cycle
//     accounting; a barrier release is detected through the machine-wide
//     release epoch (one counter shared by all cores) and completes the
//     cycle exactly as the lockstep loop would before handing back.
//
// Per-thread cycle counters accrue by the advancement delta, so a jumped
// window charges exactly the cycles stepping through it would have. With a
// sampler attached the quiet jump is disabled (the globally-stalled jump
// remains) so sampling windows observe the same clock trajectory as the
// reference engine. RunReference runs the engine with all new-style jumps
// disabled; TestEngineEquivalence asserts both paths produce byte-identical
// counters across serial, HT, cross-core, pair, and oversubscribed shapes.
func (m *Machine) Run(limit int64) (int64, error) {
	return m.run(limit, false)
}

// RunReference is Run with batched (quiet-window) advancement disabled:
// the engine's original control flow, stepping every issue cycle and
// jumping only across globally-stalled windows. It exists as the
// equivalence baseline for the optimized engine and for A/B benchmarks.
func (m *Machine) RunReference(limit int64) (int64, error) {
	return m.run(limit, true)
}

//xeonlint:hot >=1% flat in cmd/xeonchar/default.pgo
func (m *Machine) run(limit int64, reference bool) (int64, error) {
	obsRuns.Inc()
	t := obs.StartTimer()
	startClock := m.clock
	defer func() {
		advanced := m.clock - startClock
		obsCycles.Add(uint64(advanced))
		obsCyclesPerWs.Set(t.Rate(advanced))
	}()
	// Cores and contexts with no assigned work cannot issue and are never
	// mutated by an offer; drop them from the hot loop up front. Placement
	// happens before Run, so the active sets are fixed for the whole run.
	active := m.activeContexts()
	cores := m.activeCores()
	quiet := !reference && m.sampler == nil
	// When classify keeps finding several busy cores, re-probing for a
	// jump or solo window every cycle is pure overhead: back off for a few
	// cycles. classify only gates optimizations that are equivalence-
	// preserving either way, so the throttle cannot change results — at
	// worst a window is entered a few cycles late.
	throttle := 0
	for {
		if contextsDone(active) {
			return m.clock, nil
		}
		if limit > 0 && m.clock >= limit {
			return m.clock, ErrCycleLimit
		}
		issued := false
		for _, c := range cores {
			if c.Step(m.clock) {
				issued = true
			}
		}
		next := m.clock + 1
		var solo *cpu.Core
		if !issued {
			throttle = 0 // gone quiet: probe again next cycle
			ev := m.nextEvent(active, m.clock)
			if ev < 0 {
				if contextsDone(active) {
					return m.clock, nil
				}
				return m.clock, ErrDeadlock
			}
			if ev > next {
				next = ev
			}
		} else if quiet {
			if throttle > 0 {
				throttle--
			} else {
				ready, wake, soloCore := classify(active, next)
				switch {
				case ready == 0:
					// Batched advancement: nobody can issue before wake,
					// and the reference engine would only reach the limit
					// check at next before jumping itself, so match that
					// exactly.
					if wake > next && (limit <= 0 || next < limit) {
						next = wake
					}
				case soloCore != nil:
					solo = soloCore
				default:
					// Multiple cores busy: lockstep is the right mode;
					// don't re-probe for a window for a few cycles.
					throttle = 7
				}
			}
		}
		m.accrue(active, next-m.clock)
		m.clock = next
		if m.sampler != nil {
			m.sampler.tick(m, m.clock)
		}
		if solo != nil {
			m.clock = m.runSolo(solo, active, cores, m.clock, limit)
		}
	}
}

// classify scans the active contexts' QuietWake state for cycle next.
// ready counts the contexts that must be offered cycle next; wake is the
// earliest future wake-up among the purely-stalled rest (-1 when none);
// soloCore is the single core owning every must-offer context, or nil
// when they span cores.
func classify(active []*cpu.Context, next int64) (ready int, wake int64, soloCore *cpu.Core) {
	wake = -1
	for _, x := range active {
		w := x.QuietWake(next)
		switch {
		case w < 0:
		case w == 0:
			ready++
			if ready == 1 {
				soloCore = x.Core
			} else if x.Core != soloCore {
				soloCore = nil
			}
		default:
			if wake < 0 || w < wake {
				wake = w
			}
		}
	}
	return ready, wake, soloCore
}

// runSolo drives core cx alone from cycle `from` while it is the only core
// whose contexts can issue — the solo window. Every other active context
// has been classified inert or purely stalled until a known cycle (bound),
// so the reference engine's per-cycle offers to those cores are provably
// read-only no-ops and can be skipped wholesale; only cx is stepped, at
// exactly the cycles the reference engine would step it. The window ends
// (returning the clock for the main loop to resume at) when any off-core
// context wakes, the work or cycle budget runs out, or a barrier release
// escapes the core — the single cross-context side effect a step can have.
// On a release the current cycle is completed exactly as the reference
// engine would (the remaining cores in order get their same-cycle offer)
// before handing back.
//
// Solo windows dominate real studies: serial baselines and single-core HT
// cells spend their whole run here, and multi-core cells enter whenever
// memory stalls leave one core runnable.
//
//xeonlint:hot >=1% flat in cmd/xeonchar/default.pgo
func (m *Machine) runSolo(cx *cpu.Core, active []*cpu.Context, cores []*cpu.Core, from, limit int64) (now int64) {
	xs := m.soloXs[:0]
	otherAcc := m.soloAcc[:0]
	bound := int64(-1)
	othersDone := true
	for _, o := range active {
		if o.Core == cx {
			xs = append(xs, o)
			continue
		}
		if !o.AllDone() {
			othersDone = false
			if t := o.Mounted(); t != nil && t.State != cpu.ThreadDone {
				otherAcc = append(otherAcc, t)
			}
		}
		if w := o.QuietWake(from); w > 0 && (bound < 0 || w < bound) {
			bound = w
		}
	}
	m.soloXs, m.soloAcc = xs, otherAcc

	// Threads stalled on other contexts still accrue cycles every cycle of
	// the window, and the accruing set is constant while they are not
	// stepped — charge them in one shot instead of per cycle. The charge
	// must stop at any cycle where other cores ARE stepped (the release
	// path): from there the reference engine charges post-step states, so
	// settle against the entry set first and let accrue handle the rest.
	settle := func(upto int64) {
		if d := upto - from; d > 0 {
			for _, t := range otherAcc {
				t.Counters.Add(counters.Cycles, uint64(d))
			}
		}
		from = upto
	}
	defer func() { settle(now) }()

	// A barrier release can only change off-core state when some team
	// member lives off-core; a core whose teams are entirely local never
	// needs the release check (serial and single-core cells). The check
	// itself is one load of the machine-wide release epoch: during the
	// window only cx steps, so any epoch change is a release by a team
	// with a thread on cx.
	self := coreSelfContained(xs)
	var relBase uint64
	if !self {
		relBase = *m.relEpoch
	}

	// finishRelease completes a release cycle the way the reference engine
	// would: a release at cycle `at` may have made threads on other cores
	// runnable, and those cores — the ones after cx in step order — still
	// get their offer at this cycle before the window closes. The off-core
	// charge settles through the last fully-quiet cycle first: stepping the
	// later cores can finish or remount their threads, and the final
	// advancement must be charged to post-step states.
	finishRelease := func(at int64, issued bool) int64 {
		settle(at)
		after := false
		for _, c := range cores {
			if c == cx {
				after = true
				continue
			}
			if after && c.Step(at) {
				issued = true
			}
		}
		nxt := at + 1
		if !issued {
			ev := m.nextEvent(active, at)
			if ev < 0 {
				return at // full loop resolves done/deadlock at `at`
			}
			if ev > nxt {
				nxt = ev
			}
		}
		m.accrue(active, nxt-at)
		from = nxt // the deferred off-core settle must not re-charge
		return nxt
	}

	now = from

	// One- and two-context windows (serial cells, every HT-off core, and
	// HT-on cores with both contexts active — together, all windows in
	// practice): delegate to the fused core-level loop, which batches the
	// per-cycle accounting. It returns either at the window close (bound
	// or limit reached — the loop below exits immediately), on an escaping
	// barrier release (completed here exactly as the generic path would),
	// or when the core went inert (done or deadlocked — the loop below
	// resolves it). Off-core accrual is unaffected: the deferred settle
	// above charges the whole [from, now) span either way.
	if n := len(xs); n == 1 || n == 2 {
		var issued, released bool
		if n == 1 {
			now, issued, released = cx.StepWindow(xs[0], now, bound, limit, !self)
		} else {
			now, issued, released = cx.StepWindow2(xs[0], xs[1], now, bound, limit, !self)
		}
		if released {
			now = finishRelease(now, issued)
			return now
		}
	}

	for {
		if bound >= 0 && now >= bound {
			return now
		}
		if othersDone && contextsDone(xs) {
			return now
		}
		if limit > 0 && now >= limit {
			return now
		}
		issued := cx.Step(now)
		if !self && *m.relEpoch != relBase {
			now = finishRelease(now, issued)
			return now
		}
		nxt := now + 1
		if !issued {
			ev := int64(-1)
			for _, x := range xs {
				if w := x.NextEvent(now); w >= 0 && (ev < 0 || w < ev) {
					ev = w
				}
			}
			if bound >= 0 && (ev < 0 || bound < ev) {
				ev = bound
			}
			if ev < 0 {
				return now // all inert: the full loop resolves done/deadlock
			}
			if ev > nxt {
				nxt = ev
			}
		} else if limit <= 0 || nxt < limit {
			if w := quietUntil(xs, nxt); w > nxt {
				if bound >= 0 && bound < w {
					w = bound
				}
				nxt = w
			}
		}
		m.accrue(xs, nxt-now)
		now = nxt
	}
}

// coreSelfContained reports whether every team with a thread on the given
// contexts has all of its members there.
func coreSelfContained(xs []*cpu.Context) bool {
	for _, x := range xs {
		for _, t := range x.Threads() {
			n := 0
			for _, y := range xs {
				for _, u := range y.Threads() {
					if u.Team == t.Team {
						n++
					}
				}
			}
			if n != t.Team.Size {
				return false
			}
		}
	}
	return true
}

// activeContexts returns the enabled contexts that have assigned threads.
func (m *Machine) activeContexts() []*cpu.Context {
	var out []*cpu.Context
	for _, x := range m.contexts {
		if x.Enabled && x.QueueLen() > 0 {
			out = append(out, x)
		}
	}
	return out
}

// activeCores returns the cores with at least one active context.
func (m *Machine) activeCores() []*cpu.Core {
	var out []*cpu.Core
	for _, c := range m.cores {
		for _, x := range c.Contexts {
			if x.Enabled && x.QueueLen() > 0 {
				out = append(out, c)
				break
			}
		}
	}
	return out
}

// contextsDone reports whether every active context has finished its work.
func contextsDone(active []*cpu.Context) bool {
	for _, x := range active {
		if !x.AllDone() {
			return false
		}
	}
	return true
}

// quietUntil returns the cycle the clock may jump to from next, or next
// itself when any context needs a cycle-by-cycle offer (see the
// advancement contract on Run and cpu.Context.QuietWake).
func quietUntil(active []*cpu.Context, next int64) int64 {
	best := next
	for _, x := range active {
		w := x.QuietWake(next)
		if w < 0 {
			continue // inert: imposes no wake-up
		}
		if w <= next {
			return next // must be offered the very next cycle
		}
		if best == next || w < best {
			best = w
		}
	}
	return best
}

// nextEvent returns the earliest cycle after now any active context could
// issue, or -1.
func (m *Machine) nextEvent(active []*cpu.Context, now int64) int64 {
	best := int64(-1)
	for _, x := range active {
		ev := x.NextEvent(now)
		if ev < 0 {
			continue
		}
		if best < 0 || ev < best {
			best = ev
		}
	}
	if best >= 0 && best <= now {
		best = now + 1
	}
	return best
}

// accrue charges d cycles to the mounted thread of every context that still
// has unfinished work — this is the PMU "cycles" event per thread.
func (m *Machine) accrue(active []*cpu.Context, d int64) {
	if d <= 0 {
		return
	}
	// A context with all threads done necessarily has a Done (or nil)
	// mounted thread, so the mounted-state check alone suffices.
	for _, x := range active {
		if t := x.Mounted(); t != nil && t.State != cpu.ThreadDone {
			t.Counters.Add(counters.Cycles, uint64(d))
		}
	}
}

// Reset empties the machine between back-to-back phases of one experiment:
// caches, TLBs, predictors, prefetchers, buses, memory, clock, and run
// queues are cleared. Enabled flags, the cores' round-robin arbitration
// pointers, and the caches' internal replacement clocks are deliberately
// preserved — phase N+1 of an experiment continues on the "same" warm
// machine (see internal/lmbench). For power-on recycling use ResetHard.
func (m *Machine) Reset() {
	m.clock = 0
	m.Mem.Reset()
	for _, ch := range m.Chips {
		ch.FSB.Reset()
	}
	for _, c := range m.cores {
		c.TC.Flush()
		c.L1D.Flush()
		c.L2.Flush()
		c.ITLB.Flush()
		c.DTLB.Flush()
		c.BP.Reset()
		c.PF.Reset()
		for _, x := range c.Contexts {
			x.Clear()
		}
	}
}

// ResetHard restores true power-on state: everything Reset clears plus the
// cores' full power-on reset (replacement clocks, policy RNGs, arbitration
// pointers, Enabled flags — see cpu.Core.Reset) and any attached sampler.
// A hard-reset machine is bit-for-bit indistinguishable from one freshly
// built by New with the same Config; Pool relies on this to recycle
// machines across cells without perturbing determinism.
func (m *Machine) ResetHard() {
	m.clock = 0
	m.sampler = nil
	m.Mem.Reset()
	for _, ch := range m.Chips {
		ch.FSB.Reset()
	}
	for _, c := range m.cores {
		c.Reset()
	}
}
