package core

import (
	"context"
	"sync"

	"xeonomp/internal/config"
	"xeonomp/internal/obs"
)

// Process-wide observability series for the in-flight dedupe layer:
// leaders computed a cell while identical requests waited; shared counts
// the waiters that were served the leader's result instead of simulating.
var (
	obsFlightLeaders = obs.NewCounter(obs.MetricCoreFlightLeaders)
	obsFlightShared  = obs.NewCounter(obs.MetricCoreFlightShared)
)

// Backend is the seam between study orchestration and cell execution.
// Studies and ablations list *which* cells to run (Study.Cells) and how
// to reduce them; a Backend decides *where and how* one cell runs.
// RunContext dispatches every cell through Options.Backend, so swapping
// the backend — local in-process execution, in-flight dedupe in front of
// it, a concurrency gate, or (eventually) a remote shard — changes
// nothing about study results: the golden artifacts and determinism pins
// are the contract every implementation must honor.
//
// RunCell executes (or serves) one simulation cell. cached reports
// whether the result was served from a cache, journal, or an identical
// in-flight computation rather than simulated by this call; RunContext
// owns the progress and metric accounting built on it. Implementations
// must be safe for concurrent use: RunCells calls RunCell from
// Options.Workers goroutines at once.
type Backend interface {
	RunCell(ctx context.Context, w Workload, cfg config.Configuration, opt Options) (res *RunResult, cached bool, err error)
}

// localBackend is the in-process execution path: the run cache and
// journal tiers when Options carries them, the cycle engine underneath.
type localBackend struct{}

// Local returns the in-process Backend — the execution path xeonchar
// always used, now behind the seam. It is stateless; every call reads its
// cache/journal wiring from the Options it is handed.
func Local() Backend { return localBackend{} }

func (localBackend) RunCell(ctx context.Context, w Workload, cfg config.Configuration, opt Options) (*RunResult, bool, error) {
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	if opt.Cache == nil && opt.Journal == nil {
		res, err := runUncached(w, cfg, opt)
		return res, false, err
	}
	return runThroughCache(ctx, w, cfg, opt, func() (*RunResult, bool, error) {
		res, err := runUncached(w, cfg, opt)
		return res, false, err
	})
}

// cachedBackend layers the run-cache and journal tiers of Options over
// any inner backend.
type cachedBackend struct{ inner Backend }

// Cached wraps inner with the same cache/journal tier the local backend
// has built in: cells are served from Options.Cache or the replayed
// Options.Journal when possible, and every cell the inner backend
// returns is recorded to both. Local() does not need it; a remote or
// sharded backend does — without it, a frontend daemon scattering cells
// to workers would have no journal of its own to resume from and no
// cache to serve warm reruns out of. Layer it innermost-but-one:
// Dedupe(Gate(Cached(remote))).
func Cached(inner Backend) Backend { return cachedBackend{inner: inner} }

func (b cachedBackend) RunCell(ctx context.Context, w Workload, cfg config.Configuration, opt Options) (*RunResult, bool, error) {
	if opt.Cache == nil && opt.Journal == nil {
		return b.inner.RunCell(ctx, w, cfg, opt)
	}
	return runThroughCache(ctx, w, cfg, opt, func() (*RunResult, bool, error) {
		return b.inner.RunCell(ctx, w, cfg, opt)
	})
}

// flight is one in-progress cell computation; waiters block on done and
// then read res/err, which the leader writes before closing the channel.
type flight struct {
	done chan struct{}
	res  *RunResult
	err  error
}

// Dedupe wraps a Backend with in-flight deduplication (the singleflight
// pattern): concurrent RunCell calls whose cells hash to the same
// runcache identity share one computation. The first caller becomes the
// leader and executes against the inner backend; everyone else waits for
// the leader and is served the same *RunResult (treat it as read-only —
// results are immutable after computation everywhere in this tree).
//
// This is what makes a shared experiment server cheap under redundant
// load: two clients submitting the same sweep cost one simulation, and
// the run cache only ever stores the cell once. A canceled waiter
// returns its own ctx.Err and leaves the leader running; a leader whose
// ctx is canceled propagates that error to every waiter of that flight,
// and the next identical request starts a fresh computation.
type Dedupe struct {
	inner Backend

	mu       sync.Mutex
	inflight map[string]*flight
}

// NewDedupe returns a Dedupe executing unique cells on inner.
func NewDedupe(inner Backend) *Dedupe {
	return &Dedupe{inner: inner, inflight: map[string]*flight{}}
}

// RunCell implements Backend. Cells are identified by the same
// content-address the run cache uses (CellHash), so "identical" means
// identical in every result-affecting input; an unhashable key
// (impossible with plain-data inputs) degrades to plain execution.
func (d *Dedupe) RunCell(ctx context.Context, w Workload, cfg config.Configuration, opt Options) (*RunResult, bool, error) {
	hash, err := CellHash(ctx, w, cfg, opt)
	if err != nil {
		return d.inner.RunCell(ctx, w, cfg, opt)
	}
	d.mu.Lock()
	if f, ok := d.inflight[hash]; ok {
		d.mu.Unlock()
		obsFlightShared.Inc()
		select {
		case <-f.done:
			return f.res, true, f.err
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
	}
	f := &flight{done: make(chan struct{})}
	d.inflight[hash] = f
	d.mu.Unlock()

	obsFlightLeaders.Inc()
	res, cached, err := d.inner.RunCell(ctx, w, cfg, opt)
	f.res, f.err = res, err
	d.mu.Lock()
	delete(d.inflight, hash)
	d.mu.Unlock()
	close(f.done)
	return res, cached, err
}

// Gate wraps a Backend with a global concurrency limit: at most slots
// RunCell calls execute at once, everyone else queues. A server fronting
// many study jobs uses one Gate under one Dedupe, so admission control
// bounds total simulation concurrency regardless of how many requests
// are in flight, and duplicate waiters never hold a slot.
type Gate struct {
	inner Backend
	sem   chan struct{}
}

// NewGate returns a Gate running at most slots (minimum 1) concurrent
// cells on inner.
func NewGate(inner Backend, slots int) *Gate {
	if slots < 1 {
		slots = 1
	}
	return &Gate{inner: inner, sem: make(chan struct{}, slots)}
}

// RunCell implements Backend. Waiting for a slot honors ctx, so a
// canceled request leaves the queue immediately.
func (g *Gate) RunCell(ctx context.Context, w Workload, cfg config.Configuration, opt Options) (*RunResult, bool, error) {
	select {
	case g.sem <- struct{}{}:
	case <-ctx.Done():
		return nil, false, ctx.Err()
	}
	defer func() { <-g.sem }()
	return g.inner.RunCell(ctx, w, cfg, opt)
}
