// Package core is the characterization framework — the reproduction of the
// paper's methodology. It assembles the simulated PowerEdge-2850-like
// machine, applies a Table-1 hardware configuration, places one or more
// benchmark programs on the enabled contexts, runs the cycle engine, and
// reduces the per-thread performance counters to the metrics and speedups
// reported in the paper's figures and tables.
package core

import (
	"context"
	"fmt"

	"xeonomp/internal/config"
	"xeonomp/internal/counters"
	"xeonomp/internal/cpu"
	"xeonomp/internal/journal"
	"xeonomp/internal/machine"
	"xeonomp/internal/obs"
	"xeonomp/internal/profiles"
	"xeonomp/internal/runcache"
	"xeonomp/internal/sched"
)

// Process-wide observability series (see internal/obs): cell traffic and
// latency for the experiment engine, plus study-driver worker telemetry.
var (
	obsCellsComputed = obs.NewCounter(obs.MetricCoreCellsComputed)
	obsCellsCached   = obs.NewCounter(obs.MetricCoreCellsCached)
	obsCellNs        = obs.NewHistogram(obs.MetricCoreCellNs)
	obsWorkers       = obs.NewGauge(obs.MetricCoreWorkers)
	obsWorkerUtil    = obs.NewGauge(obs.MetricCoreWorkerUtil)
)

// Options controls a characterization run.
type Options struct {
	// Scale multiplies every benchmark's instruction budget; 1.0 is the
	// full workload, tests use small fractions.
	Scale float64
	// Seed makes runs reproducible; different seeds model independent
	// trials.
	Seed uint64
	// Policy is the thread-placement policy (sched.Alternate reproduces
	// the balanced Linux default).
	Policy sched.Policy
	// Machine is the platform; nil selects machine.PaxvilleSMP.
	Machine *machine.Config
	// CycleLimit aborts runaway runs; 0 means none.
	CycleLimit int64
	// WarmupFrac is the fraction of each thread's instruction budget run
	// before its counters are zeroed, so reported metrics reflect warm
	// caches the way the paper's whole-run VTune sampling does. Wall-clock
	// cycles (and hence speedups) still cover the entire run.
	WarmupFrac float64
	// SampleInterval, when positive, attaches a machine-wide counter
	// sampler with the given window (in cycles); the time series lands in
	// RunResult.Samples — the VTune-style phase view.
	SampleInterval int64
	// Workers parallelizes the study drivers across goroutines (each run
	// owns its machine, so results are identical to sequential execution).
	// <= 1 runs sequentially.
	Workers int
	// Cache, when non-nil, memoizes each simulation cell content-addressed
	// by (machine config, workload profiles, configuration, placement
	// policy, seed, scale, warmup, cycle limit, sample interval, schema
	// version). Cached, resumed, and cold runs produce identical results;
	// a corrupt entry is recomputed, never trusted.
	Cache *runcache.Cache
	// Journal, when non-nil, records every computed cell to an append-only
	// JSONL file and serves cells replayed from a previous, interrupted
	// invocation — the -resume path of cmd/xeonchar.
	Journal *journal.Journal
	// Progress, when non-nil, receives cell-completion events for the
	// stderr progress reporter (done/total, cache hit rate, ETA).
	Progress *journal.Progress
	// Reference runs the cycle engine through machine.RunReference — the
	// un-optimized advancement loop — instead of machine.Run. Results are
	// identical by contract (the equivalence tests pin this); the switch
	// exists for those tests and for A/B benchmarking the engine.
	Reference bool
	// Backend executes the cells. nil selects Local(), the in-process
	// path; the experiment server layers Dedupe and Gate on top, and the
	// seam is where a remote shard would plug in. Backends never affect
	// results — a cell's identity (CacheKey) deliberately excludes the
	// backend, and the golden artifacts pin the equivalence.
	Backend Backend
}

// DefaultOptions returns full-scale options with the paper's platform.
func DefaultOptions() Options {
	return Options{Scale: 1.0, Seed: 1, Policy: sched.Alternate, WarmupFrac: 0.35}
}

func (o Options) machineConfig() machine.Config {
	if o.Machine != nil {
		return *o.Machine
	}
	return machine.PaxvilleSMP()
}

func (o Options) validate() error {
	if o.Scale <= 0 {
		return fmt.Errorf("core: scale %g", o.Scale)
	}
	if o.WarmupFrac < 0 || o.WarmupFrac >= 1 {
		return fmt.Errorf("core: warmup fraction %g out of [0,1)", o.WarmupFrac)
	}
	return o.validateBounds()
}

// ProgramResult is the outcome of one program within a run.
type ProgramResult struct {
	Benchmark string
	Threads   int
	Cycles    int64 // wall-clock cycles until the program's last thread finished
	Counters  counters.Set
	Metrics   counters.Metrics
}

// RunResult is the outcome of one workload on one configuration.
type RunResult struct {
	Config     config.Configuration
	WallCycles int64
	Programs   []ProgramResult
	// Samples is the machine-wide counter time series, present when
	// Options.SampleInterval was set.
	Samples []machine.Sample
}

// Workload is a set of programs to co-schedule.
type Workload struct {
	Programs []profiles.Profile
}

// Single returns a one-program workload.
func Single(p profiles.Profile) Workload { return Workload{Programs: []profiles.Profile{p}} }

// Pair returns a two-program workload.
func Pair(a, b profiles.Profile) Workload {
	return Workload{Programs: []profiles.Profile{a, b}}
}

// Name renders the workload like the paper ("CG/FT").
func (w Workload) Name() string {
	s := ""
	for i, p := range w.Programs {
		if i > 0 {
			s += "/"
		}
		s += p.Name
	}
	return s
}

// threadsPerProgram splits the configuration's hardware contexts evenly
// between programs, the paper's multi-program methodology. Single programs
// use the configuration's thread count.
func threadsPerProgram(cfg config.Configuration, programs int) int {
	if programs <= 1 {
		return cfg.Threads
	}
	per := len(cfg.Contexts) / programs
	if per < 1 {
		per = 1
	}
	return per
}

// Run executes workload w under configuration cfg and returns per-program
// results. It is RunContext with a background context.
func Run(w Workload, cfg config.Configuration, opt Options) (*RunResult, error) {
	return RunContext(context.Background(), w, cfg, opt)
}

// RunContext executes workload w under configuration cfg and returns
// per-program results. The cell is dispatched through Options.Backend
// (nil means Local()), so the same orchestration serves in-process runs,
// deduped server-side execution, and future remote shards; the span,
// counter, and progress accounting here covers every backend. Every run
// uses a machine in power-on state —
// freshly built or recycled through the machine pool, which is
// indistinguishable — mirroring the paper's independent trials. When Options carries a run cache or
// journal, the cell is served from there when possible and recorded after
// computing; either way the result is identical to an uncached run.
//
// The context carries cancellation (a canceled ctx returns before any
// simulation work) and the observability plumbing: the cell records a
// trace span (named "cell", tagged benchmark/config/cached) under the span
// already in ctx, and the simulation runs under pprof labels so CPU
// profiles attribute samples to the cell. The context handed to the
// backend also carries the cell's content address, computed by the first
// tier that needs it and shared by the rest (see CellHash).
func RunContext(ctx context.Context, w Workload, cfg config.Configuration, opt Options) (*RunResult, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	backend := opt.Backend
	if backend == nil {
		backend = Local()
	}
	ctx, sp := obs.StartSpan(ctx, "cell", "benchmark", w.Name(), "config", cfg.Name)
	defer sp.End()
	ctx = withCellAddr(ctx, w, cfg, opt)
	t := obs.StartTimer()
	var (
		res    *RunResult
		cached bool
		err    error
	)
	obs.DoCell(ctx, w.Name(), cfg.Name, func(ctx context.Context) {
		res, cached, err = backend.RunCell(ctx, w, cfg, opt)
	})
	if err != nil {
		return nil, err
	}
	obsCellNs.ObserveSince(t)
	if cached {
		obsCellsCached.Inc()
		sp.SetArg("cached", "true")
	} else {
		obsCellsComputed.Inc()
		sp.SetArg("cached", "false")
	}
	opt.Progress.Done(cached)
	return res, nil
}

// pool recycles simulated machines across cells. A study re-builds the
// same platform hundreds of times; recycling replaces those allocations
// with a hard reset, and machine.ResetHard guarantees a recycled machine
// is bit-for-bit a fresh one (TestPooledMachineDeterminism pins this).
var pool = machine.NewPool()

// runUncached is the cache-oblivious simulation path: build the machine,
// place the threads, run the cycle engine, reduce the counters.
func runUncached(w Workload, cfg config.Configuration, opt Options) (*RunResult, error) {
	if len(w.Programs) == 0 {
		return nil, fmt.Errorf("core: empty workload")
	}
	m, err := pool.Get(opt.machineConfig())
	if err != nil {
		return nil, err
	}
	defer pool.Put(m)
	ctxs, err := cfg.Apply(m)
	if err != nil {
		return nil, err
	}

	per := threadsPerProgram(cfg, len(w.Programs))
	progThreads := make([][]*cpu.Thread, len(w.Programs))
	for pi, prof := range w.Programs {
		if err := prof.Validate(); err != nil {
			return nil, err
		}
		layout, err := prof.Layout(uint64(pi+1), per)
		if err != nil {
			return nil, err
		}
		prog, err := prof.Program(layout, per, opt.Scale, opt.Seed+uint64(pi)*7919)
		if err != nil {
			return nil, err
		}
		team := cpu.NewTeam(per)
		for tid := 0; tid < per; tid++ {
			gen, err := prog.Thread(tid)
			if err != nil {
				return nil, err
			}
			name := fmt.Sprintf("%s.%d.t%d", prof.Name, pi, tid)
			th := cpu.NewThread(name, pi, gen, team)
			if o := opt.WarmupFrac; o > 0 {
				th.WarmupInstr = int64(o * float64(prof.SerialInstr) * opt.Scale / float64(per))
			}
			progThreads[pi] = append(progThreads[pi], th)
		}
	}
	if opt.Policy == sched.Symbiotic {
		demands := make([]sched.ProgramDemand, len(w.Programs))
		for pi, prof := range w.Programs {
			demands[pi] = prof.Demand()
		}
		if err := sched.PlaceSymbiotic(progThreads, demands, ctxs); err != nil {
			return nil, err
		}
	} else if err := sched.Place(progThreads, ctxs, opt.Policy); err != nil {
		return nil, err
	}
	for _, x := range ctxs {
		x.Prewarm()
	}

	var sampler *machine.Sampler
	if opt.SampleInterval > 0 {
		sampler, err = machine.NewSampler(opt.SampleInterval)
		if err != nil {
			return nil, err
		}
		m.SetSampler(sampler)
	}

	var wall int64
	if opt.Reference {
		wall, err = m.RunReference(opt.CycleLimit)
	} else {
		wall, err = m.Run(opt.CycleLimit)
	}
	if err != nil {
		return nil, fmt.Errorf("core: %s on %s: %w", w.Name(), cfg.Name, err)
	}

	res := &RunResult{Config: cfg, WallCycles: wall}
	if sampler != nil {
		res.Samples = sampler.Samples
	}
	for pi, prof := range w.Programs {
		pr := ProgramResult{Benchmark: prof.Name, Threads: per}
		for _, t := range progThreads[pi] {
			pr.Counters.Merge(&t.Counters)
			if t.FinishedAt > pr.Cycles {
				pr.Cycles = t.FinishedAt
			}
		}
		pr.Metrics = counters.Derive(&pr.Counters)
		res.Programs = append(res.Programs, pr)
	}
	return res, nil
}

// RunSingle is a convenience wrapper for one-program workloads.
func RunSingle(p profiles.Profile, cfg config.Configuration, opt Options) (*RunResult, error) {
	return RunContext(context.Background(), Single(p), cfg, opt)
}

// SerialBaseline runs benchmark p alone on the Serial configuration and
// returns its result; speedups in the figures are relative to this.
func SerialBaseline(p profiles.Profile, opt Options) (*RunResult, error) {
	return SerialBaselineContext(context.Background(), p, opt)
}

// SerialBaselineContext is SerialBaseline with cancellation and span/label
// context.
func SerialBaselineContext(ctx context.Context, p profiles.Profile, opt Options) (*RunResult, error) {
	serial, err := config.ByArch(config.Serial)
	if err != nil {
		return nil, err
	}
	return RunContext(ctx, Single(p), serial, opt)
}

// Speedup returns baseline/cycles, the paper's speedup definition.
func Speedup(baselineCycles, cycles int64) float64 {
	if cycles == 0 {
		return 0
	}
	return float64(baselineCycles) / float64(cycles)
}
