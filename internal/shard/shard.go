package shard

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync/atomic"

	"xeonomp/internal/api"
	"xeonomp/internal/config"
	"xeonomp/internal/core"
	"xeonomp/internal/obs"
)

// defaultInflight bounds concurrent cells per worker when WithInflight
// is not given: enough to keep a small worker's gate busy without one
// frontend monopolizing it.
const defaultInflight = 4

// probeEvery is the sticky-down recovery cadence: every probeEvery-th
// cell that would have routed to a down worker is sent there anyway as a
// probe, so a restarted worker rejoins without any clock-based health
// checks (routing stays a pure function of request traffic).
const probeEvery = 32

// worker is one remote plus its routing state.
type worker struct {
	remote *Remote
	// sem bounds in-flight cells on this worker.
	sem chan struct{}
	// down is the sticky health flag: set on transport failure, cleared
	// by the first cell (or probe) the worker answers.
	down atomic.Bool
	// skips counts cells routed away while down; it paces probes.
	skips atomic.Uint64
	// sent is the per-shard split of MetricShardCellsSent.
	sent *obs.Counter
}

// probeDue records one routed-away cell and reports whether it should be
// sent to this down worker as a recovery probe instead.
func (wk *worker) probeDue() bool { return wk.skips.Add(1)%probeEvery == 0 }

// markUp clears the down flag after a successful response.
func (wk *worker) markUp() {
	if wk.down.CompareAndSwap(true, false) {
		wk.skips.Store(0)
	}
}

// Shard is a core.Backend that partitions cells across N remote workers.
// Each cell's home worker is chosen by its runcache content address —
// the same identity every cache tier keys on — so reruns and resumed
// studies land on the worker whose cache and dedupe layer already hold
// the cell. A worker that fails at the transport level (connection
// refused, reset, timeout) is marked down and its cells fail over to the
// next worker in ring order; typed API errors (bad request, over budget
// beyond Remote's retries) are the caller's problem and never fail over.
//
// Shard carries no cache of its own: wrap it in core.Cached to give the
// frontend a journal to resume from and a cache to serve warm reruns
// out of — cmd/xeond -shard wires exactly Dedupe(Gate(Cached(Shard))).
type Shard struct {
	workers []*worker
}

// Option configures a Shard.
type Option func(*shardConfig)

type shardConfig struct {
	inflight int
}

// WithInflight bounds concurrent in-flight cells per worker (minimum 1,
// default 4). Excess cells for a worker queue at the frontend rather
// than piling onto the worker's admission control.
func WithInflight(n int) Option {
	return func(c *shardConfig) { c.inflight = n }
}

// New returns a Shard over the given workers, in ring order.
func New(remotes []*Remote, opts ...Option) (*Shard, error) {
	if len(remotes) == 0 {
		return nil, errors.New("shard: no workers")
	}
	cfg := shardConfig{inflight: defaultInflight}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.inflight < 1 {
		cfg.inflight = 1
	}
	s := &Shard{}
	for i, r := range remotes {
		s.workers = append(s.workers, &worker{
			remote: r,
			sem:    make(chan struct{}, cfg.inflight),
			sent:   obs.NewCounter(obs.MetricShardCellsSent + "." + strconv.Itoa(i)),
		})
	}
	return s, nil
}

// Workers reports the number of shards.
func (s *Shard) Workers() int { return len(s.workers) }

// home returns the cell's affinity shard: its runcache content address
// (core.CellHash, shared with the tiers above) reduced mod N. An
// unhashable key (impossible with plain-data inputs) degrades to shard 0.
func (s *Shard) home(ctx context.Context, w core.Workload, cfg config.Configuration, opt core.Options) int {
	hash, err := core.CellHash(ctx, w, cfg, opt)
	if err != nil || len(hash) < 8 {
		return 0
	}
	v, err := strconv.ParseUint(hash[:8], 16, 64)
	if err != nil {
		return 0
	}
	return int(v % uint64(len(s.workers)))
}

// RunCell implements core.Backend: try the home shard, fail over through
// the ring on transport errors. Cells are idempotent (deterministic and
// content-addressed), so re-dispatching a cell whose worker died
// mid-simulation is always safe.
func (s *Shard) RunCell(ctx context.Context, w core.Workload, cfg config.Configuration, opt core.Options) (*core.RunResult, bool, error) {
	n := len(s.workers)
	home := s.home(ctx, w, cfg, opt)

	// Candidates in affinity/ring order, skipping down workers unless
	// their probe is due; if that skips everyone, probe the full ring —
	// a recovered fleet must be rediscovered, not errored at.
	candidates := make([]int, 0, n)
	for i := 0; i < n; i++ {
		idx := (home + i) % n
		if wk := s.workers[idx]; !wk.down.Load() || wk.probeDue() {
			candidates = append(candidates, idx)
		}
	}
	if len(candidates) == 0 {
		for i := 0; i < n; i++ {
			candidates = append(candidates, (home+i)%n)
		}
	}

	var lastErr error
	for _, idx := range candidates {
		wk := s.workers[idx]
		select {
		case wk.sem <- struct{}{}:
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
		if idx != home {
			obsFailovers.Inc()
		}
		obsCellsSent.Inc()
		wk.sent.Inc()
		res, cached, err := wk.remote.RunCell(ctx, w, cfg, opt)
		<-wk.sem
		if err == nil {
			wk.markUp()
			return res, cached, nil
		}
		if cerr := ctx.Err(); cerr != nil {
			// The caller gave up; that is not the worker's health signal.
			return nil, false, cerr
		}
		if !errors.Is(err, api.ErrTransport) {
			return nil, false, err
		}
		wk.down.Store(true)
		lastErr = err
	}
	return nil, false, fmt.Errorf("shard: all %d workers unreachable: %w", n, lastErr)
}
