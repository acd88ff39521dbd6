package main

import (
	"time"

	"xeonomp/internal/branch"
	"xeonomp/internal/bus"
	"xeonomp/internal/cache"
	"xeonomp/internal/config"
	"xeonomp/internal/core"
	"xeonomp/internal/counters"
	"xeonomp/internal/machine"
	"xeonomp/internal/prefetch"
	"xeonomp/internal/profiles"
	"xeonomp/internal/tlb"
	"xeonomp/internal/trace"
)

// Engine component probes: fixed, seeded calls to the public functions
// of each engine package on machine.PaxvilleSMP() geometry. The inputs
// never depend on the workload seed, so a probe moves only when its
// component's code (or the host) does. Each probe is timed probeReps
// times and reports the median ns per call.
//
// machine.explained_frac (explainedNs ÷ engine time) multiplies each probe
// by the simulated event count that calls the probed function once, taken
// from the engine's own counters:
//
//	trace.next_ns      × instructions                     (cpu.Thread.next → Generator.Next)
//	tlb.access_ns      × itlb_access + dtlb_access        (fetch, memorySubsystem)
//	cache.lookup_ns    × l1d_access + l2_access + tc_access
//	cache.fill_ns      × l1d_miss + l2_miss + tc_miss + bus_prefetch (fillL1, fillL2, fetch, prefetch fills)
//	branch.resolve_ns  × branch_retired                   (Core.Step → Predictor.Resolve)
//	prefetch.on_miss_ns × l2_miss                         (memorySubsystem → prefetchOnMiss)
//	bus.issue_ns       × bus transactions + bus_invalidate (FSB.Issue per transaction)
//
// The counters cover only the post-warm-up part of each thread
// (core.Options.WarmupFrac of the instructions run before they are
// zeroed), so the counts are scaled by 1/(1-WarmupFrac) to estimate every
// call the engine made.
const (
	probeSeed = 0x5eed
	probeReps = 5
	probeOps  = 400_000
)

type probeResult struct {
	traceNext, cacheLookup, cacheFill, tlbAccess, branchResolve, prefetchOnMiss, busIssue float64
	keyHash                                                                               float64
}

// rng is the probes' input generator (xorshift64*).
type rng uint64

func (r *rng) next() uint64 {
	x := uint64(*r)
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	*r = rng(x)
	return x * 2685821657736338717
}

// timeOps returns the median over probeReps of ns per op for fn, which
// performs ops calls in repetition rep.
func timeOps(ops int, fn func(rep int)) float64 {
	xs := make([]float64, probeReps)
	for i := range xs {
		t := time.Now()
		fn(i)
		xs[i] = float64(time.Since(t)) / float64(ops)
	}
	return median(xs)
}

var probeSink uint64

func runProbes() (probeResult, error) {
	m := machine.PaxvilleSMP()
	var p probeResult
	var err error
	if p.traceNext, err = probeTrace(); err != nil {
		return p, err
	}
	p.cacheLookup, p.cacheFill = probeCache(m.L1D, m.L2)
	p.tlbAccess = probeTLB(m.ITLB, m.DTLB)
	p.branchResolve = probeBranch(m.Branch)
	p.prefetchOnMiss = probePrefetch(m.Prefetch)
	p.busIssue = probeBus(m)
	p.keyHash, err = probeKeyHash()
	return p, err
}

// probeTrace times Generator.Next on the CG and EP streams (a memory-
// heavy and a compute-heavy instruction mix).
func probeTrace() (float64, error) {
	var gens []profiles.Profile
	for _, name := range []string{"CG", "EP"} {
		p, err := profiles.ByName(name)
		if err != nil {
			return 0, err
		}
		gens = append(gens, p)
	}
	var ns float64
	for _, p := range gens {
		layout, err := p.Layout(1, 1)
		if err != nil {
			return 0, err
		}
		// One fresh generator per repetition, built outside the timing:
		// every repetition replays the same stream.
		gs := make([]*trace.Generator, probeReps)
		for i := range gs {
			if gs[i], err = p.Generator(layout, 0, 1, 1.0, probeSeed); err != nil {
				return 0, err
			}
		}
		ns += timeOps(probeOps, func(rep int) {
			var in trace.Instr
			for i := 0; i < probeOps && gs[rep].Next(&in); i++ {
				probeSink += in.Addr
			}
		})
	}
	return ns / float64(len(gens)), nil
}

// probeCache times Lookup and Fill on the L1D (16 KiB) and L2 (1 MiB):
// 70% of addresses fall in a hot half-cache region, the rest anywhere in
// four times the capacity, so both hits and misses are exercised.
func probeCache(cfgs ...cache.Config) (lookup, fill float64) {
	for _, cfg := range cfgs {
		r := rng(probeSeed)
		size := uint64(cfg.Size)
		addrs := make([]uint64, probeOps)
		for i := range addrs {
			if r.next()%10 < 7 {
				addrs[i] = r.next() % (size / 2)
			} else {
				addrs[i] = r.next() % (4 * size)
			}
		}
		c := cache.New(cfg)
		for a := uint64(0); a < size/2; a += uint64(cfg.LineSize) {
			c.Fill(a, false, false)
		}
		lookup += timeOps(len(addrs), func(int) {
			for i, a := range addrs {
				if c.Lookup(a, i%4 == 0).Hit {
					probeSink++
				}
			}
		})
		fill += timeOps(len(addrs), func(int) {
			for i, a := range addrs {
				probeSink += c.Fill(a, i%4 == 0, false).EvictedAddr
			}
		})
	}
	return lookup / float64(len(cfgs)), fill / float64(len(cfgs))
}

// probeTLB times Access on the ITLB and DTLB over 256 pages with 80%
// of accesses in 48 hot pages.
func probeTLB(cfgs ...tlb.Config) float64 {
	var ns float64
	for _, cfg := range cfgs {
		r := rng(probeSeed)
		addrs := make([]uint64, probeOps)
		for i := range addrs {
			page := r.next() % 256
			if r.next()%10 < 8 {
				page %= 48
			}
			addrs[i] = page*uint64(cfg.PageSize) + r.next()%uint64(cfg.PageSize)
		}
		t := tlb.New(cfg)
		ns += timeOps(len(addrs), func(int) {
			for _, a := range addrs {
				if t.Access(a) {
					probeSink++
				}
			}
		})
	}
	return ns / float64(len(cfgs))
}

// probeBranch times Resolve over 4096 branch sites with per-site biased
// directions.
func probeBranch(cfg branch.Config) float64 {
	r := rng(probeSeed)
	type br struct {
		pc, target uint64
		taken      bool
	}
	in := make([]br, probeOps)
	for i := range in {
		site := r.next() % 4096
		in[i] = br{pc: 0x400000 + site*16, target: 0x400000 + (site^0x55)*16, taken: r.next()%8 < site%8}
	}
	p := branch.New(cfg)
	return timeOps(len(in), func(int) {
		for _, b := range in {
			if p.Resolve(b.pc, b.taken, b.target).Mispredicted {
				probeSink++
			}
		}
	})
}

// probePrefetch times OnMiss over twelve interleaved ascending streams
// (more than the prefetcher's stream table holds) plus 25% random lines.
func probePrefetch(cfg prefetch.Config) float64 {
	r := rng(probeSeed)
	line := uint64(cfg.LineSize)
	var heads [12]uint64
	for i := range heads {
		heads[i] = uint64(i+1) << 24
	}
	lines := make([]uint64, probeOps)
	for i := range lines {
		if r.next()%4 == 0 {
			lines[i] = (r.next() % (1 << 30)) &^ (line - 1)
			continue
		}
		s := r.next() % uint64(len(heads))
		heads[s] += line
		lines[i] = heads[s]
	}
	p := prefetch.New(cfg)
	return timeOps(len(lines), func(int) {
		for _, l := range lines {
			probeSink += uint64(len(p.OnMiss(l)))
		}
	})
}

// probeBus times FSB.Issue on one chip's bus over the shared memory
// controller, with a seeded mix of transaction types and arrival gaps.
func probeBus(m machine.Config) float64 {
	r := rng(probeSeed)
	type txn struct {
		gap int64
		t   bus.TxnType
	}
	in := make([]txn, probeOps)
	kinds := []bus.TxnType{bus.DemandRead, bus.DemandRead, bus.RFO, bus.Writeback, bus.Prefetch}
	for i := range in {
		in[i] = txn{gap: int64(r.next() % 400), t: kinds[r.next()%uint64(len(kinds))]}
	}
	fsbs := make([]*bus.FSB, probeReps)
	for i := range fsbs {
		fsbs[i] = bus.NewFSB(bus.FSBConfig{Name: "fsb0", Bandwidth: m.FSBBandwidth, LineSize: m.Mem.LineSize, Freq: m.Freq}, bus.NewMemory(m.Mem))
	}
	return timeOps(len(in), func(rep int) {
		fsb := fsbs[rep]
		var now int64
		for _, x := range in {
			now += x.gap
			probeSink += uint64(fsb.Issue(now, x.t))
		}
	})
}

// explainedNs is Σ probe ns/op × matching event count over the counters
// of the simulated cells (see the table above).
func (p probeResult) explainedNs(c *counters.Set, warmupFrac float64) float64 {
	g := func(e counters.Event) float64 { return float64(c.Get(e)) }
	ns := p.traceNext*g(counters.Instructions) +
		p.tlbAccess*(g(counters.ITLBAccess)+g(counters.DTLBAccess)) +
		p.cacheLookup*(g(counters.L1DAccess)+g(counters.L2Access)+g(counters.TCAccess)) +
		p.cacheFill*(g(counters.L1DMiss)+g(counters.L2Miss)+g(counters.TCMiss)+g(counters.BusPrefetch)) +
		p.branchResolve*g(counters.BranchRetired) +
		p.prefetchOnMiss*g(counters.L2Miss) +
		p.busIssue*(float64(counters.BusTransactions(c))+g(counters.BusInvalidate))
	return ns / (1 - warmupFrac)
}

// probeKeyHash times core.CacheKey(...).Hash() — the content address
// every cache tier, the dedupe layer and the shard router compute — over
// the single-program study's cells.
func probeKeyHash() (float64, error) {
	opt := core.DefaultOptions()
	var ws []core.Workload
	for _, name := range profiles.StudiedNames() {
		p, err := profiles.ByName(name)
		if err != nil {
			return 0, err
		}
		ws = append(ws, core.Single(p))
	}
	cfgs := config.Table1()
	const rounds = 40
	var herr error
	ns := timeOps(rounds*len(ws)*len(cfgs), func(int) {
		for i := 0; i < rounds; i++ {
			for _, w := range ws {
				for _, cfg := range cfgs {
					h, err := core.CacheKey(w, cfg, opt).Hash()
					if err != nil {
						herr = err
					}
					probeSink += uint64(len(h))
				}
			}
		}
	})
	return ns, herr
}
