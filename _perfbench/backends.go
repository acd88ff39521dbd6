package main

import (
	"context"
	"sync"
	"time"

	"xeonomp/internal/config"
	"xeonomp/internal/core"
	"xeonomp/internal/counters"
	"xeonomp/internal/runcache"
)

// The decorators below wrap core.Backend implementations of the program
// without changing them: every one forwards the call unchanged and only
// observes it. They are how the benchmark times layers and counts
// simulated events from its own code.

// ledger is the exact simulated-statistics sum over a set of cells. A
// change meant only to speed the simulator up must leave it identical.
type ledger struct {
	Cells     int
	SimCycles int64 // Σ RunResult.WallCycles
	Counters  counters.Set
}

func (l *ledger) add(res *core.RunResult) {
	l.Cells++
	l.SimCycles += res.WallCycles
	for i := range res.Programs {
		l.Counters.Merge(&res.Programs[i].Counters)
	}
}

func (l *ledger) merge(o ledger) {
	l.Cells += o.Cells
	l.SimCycles += o.SimCycles
	l.Counters.Merge(&o.Counters)
}

// countingBackend sums the simulated statistics of every cell it returns.
type countingBackend struct {
	inner core.Backend
	mu    sync.Mutex
	sum   ledger
}

func (b *countingBackend) RunCell(ctx context.Context, w core.Workload, cfg config.Configuration, opt core.Options) (*core.RunResult, bool, error) {
	res, cached, err := b.inner.RunCell(ctx, w, cfg, opt)
	if err == nil {
		b.mu.Lock()
		b.sum.add(res)
		b.mu.Unlock()
	}
	return res, cached, err
}

func (b *countingBackend) ledger() ledger {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sum
}

// latencyBackend records the host time of every cell: the per-cell
// latency samples of study-cold.
type latencyBackend struct {
	inner core.Backend
	mu    sync.Mutex
	ns    []float64
}

func (b *latencyBackend) RunCell(ctx context.Context, w core.Workload, cfg config.Configuration, opt core.Options) (*core.RunResult, bool, error) {
	t := time.Now()
	res, cached, err := b.inner.RunCell(ctx, w, cfg, opt)
	d := time.Since(t)
	b.mu.Lock()
	b.ns = append(b.ns, float64(d))
	b.mu.Unlock()
	return res, cached, err
}

// spanBackend records one span named name around every call.
type spanBackend struct {
	rec   *recorder
	name  string
	inner core.Backend
}

func (b spanBackend) RunCell(ctx context.Context, w core.Workload, cfg config.Configuration, opt core.Options) (*core.RunResult, bool, error) {
	ctx, end := b.rec.start(ctx, b.name)
	defer end()
	return b.inner.RunCell(ctx, w, cfg, opt)
}

// engineClass names the engine path a cell takes: "serial" (one
// context), "ht" (HT-on configurations, the StepWindow2 path), "cmp"
// (HT-off multicore) or "pair" (two programs co-scheduled).
func engineClass(w core.Workload, cfg config.Configuration) string {
	switch {
	case len(w.Programs) > 1:
		return "pair"
	case cfg.Arch == config.Serial:
		return "serial"
	case cfg.HT:
		return "ht"
	default:
		return "cmp"
	}
}

var engineClasses = []string{"serial", "ht", "cmp", "pair"}

// engineStats is the host cost of the cycle engine for one class of
// cells, with the simulated work it did.
type engineStats struct {
	ledger
	ns int64
}

// engineBackend is core.Local() handed Options without the run cache
// and journal, so it always simulates: wrapped in core.Cached it does
// the same work as the plain Local path, with the cache tier and the
// engine timed apart. It records a "machine.engine" span and the engine
// time and simulated counts per engineClass.
type engineBackend struct {
	rec   *recorder
	mu    sync.Mutex
	stats map[string]*engineStats
}

func newEngineBackend(rec *recorder) *engineBackend {
	return &engineBackend{rec: rec, stats: map[string]*engineStats{}}
}

func (b *engineBackend) RunCell(ctx context.Context, w core.Workload, cfg config.Configuration, opt core.Options) (*core.RunResult, bool, error) {
	opt.Cache, opt.Journal = nil, nil
	ctx, end := b.rec.start(ctx, "machine.engine")
	t := time.Now()
	res, cached, err := core.Local().RunCell(ctx, w, cfg, opt)
	ns := int64(time.Since(t))
	end()
	if err != nil {
		return res, cached, err
	}
	b.mu.Lock()
	st := b.stats[engineClass(w, cfg)]
	if st == nil {
		st = &engineStats{}
		b.stats[engineClass(w, cfg)] = st
	}
	st.add(res)
	st.ns += ns
	b.mu.Unlock()
	return res, cached, err
}

// total folds every class into one engineStats.
func (b *engineBackend) total() engineStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	var t engineStats
	for _, st := range b.stats {
		t.merge(st.ledger)
		t.ns += st.ns
	}
	return t
}

func (b *engineBackend) class(name string) engineStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	if st := b.stats[name]; st != nil {
		return *st
	}
	return engineStats{}
}

// copyBackend serves every cell from another run cache without
// simulating. Wrapped in core.Cached and run under Options carrying a
// second cache, it copies the first cache's cells into the second (how
// both fleet workers come to hold the same cells).
type copyBackend struct{ from *runcache.Cache }

func (b copyBackend) RunCell(ctx context.Context, w core.Workload, cfg config.Configuration, opt core.Options) (*core.RunResult, bool, error) {
	opt.Cache, opt.Journal = b.from, nil
	return core.Local().RunCell(ctx, w, cfg, opt)
}
