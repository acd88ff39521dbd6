package core

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"sync"

	"xeonomp/internal/config"
	"xeonomp/internal/counters"
	"xeonomp/internal/jsonfmt"
	"xeonomp/internal/machine"
	"xeonomp/internal/runcache"
)

// runSchemaVersion identifies the result encoding and the simulator's
// observable behaviour in every cache key. Bump it whenever either
// changes so stale cache and journal entries miss instead of resurfacing
// results the current code would not produce.
const runSchemaVersion = "xeonomp/run/v1"

// CacheKey returns the content-address identity of running workload w
// under cfg with opt — the runcache key core.Run uses. Exported so tools
// can inspect or prune cache entries for specific cells.
func CacheKey(w Workload, cfg config.Configuration, opt Options) runcache.Key {
	return runcache.Key{
		Schema:         runSchemaVersion,
		Machine:        opt.machineConfig(),
		Workload:       w.Programs,
		Config:         cfg,
		Policy:         opt.Policy,
		Seed:           opt.Seed,
		Scale:          opt.Scale,
		WarmupFrac:     opt.WarmupFrac,
		CycleLimit:     opt.CycleLimit,
		SampleInterval: opt.SampleInterval,
	}
}

// cellAddr is the content address of the cell one RunContext call
// dispatches, carried in the context it hands the backend stack with
// the inputs it is made for. The first tier that needs the address
// computes it and every later tier of the process reuses it, so a cell
// is hashed once per process however many tiers address it, and not at
// all when none does.
type cellAddr struct {
	w    Workload
	cfg  config.Configuration
	opt  Options
	once sync.Once
	hash string
	err  error
}

type cellAddrKey struct{}

// withCellAddr returns ctx carrying the not yet computed address of the
// cell (w, cfg, opt).
func withCellAddr(ctx context.Context, w Workload, cfg config.Configuration, opt Options) context.Context {
	return context.WithValue(ctx, cellAddrKey{}, &cellAddr{w: w, cfg: cfg, opt: opt})
}

// CellHash returns the content address of running w under cfg with opt:
// CacheKey(w, cfg, opt).Hash(), which Dedupe, the cache tier and the
// shard router all key on. When ctx carries the address RunContext
// attached for this very cell, it is computed once and shared; a tier
// handed any other cell — another workload, config, machine, seed or
// other key field — hashes that cell afresh, so a backend that forwards
// a different cell never reuses a wrong address.
func CellHash(ctx context.Context, w Workload, cfg config.Configuration, opt Options) (string, error) {
	if a, ok := ctx.Value(cellAddrKey{}).(*cellAddr); ok && a.matches(w, cfg, opt) {
		a.once.Do(func() { a.hash, a.err = CacheKey(a.w, a.cfg, a.opt).Hash() })
		return a.hash, a.err
	}
	return CacheKey(w, cfg, opt).Hash()
}

// matches reports whether a was made for the cell (w, cfg, opt). The
// slices are compared by backing array, the way a cell travels through
// the backend stack: results and their inputs are never written in
// place, so a backend that forwards another cell builds new slices.
// Floats are compared by bits, since -0 and 0 encode differently.
func (a *cellAddr) matches(w Workload, cfg config.Configuration, opt Options) bool {
	c := &a.cfg
	o := &a.opt
	return sameSlice(a.w.Programs, w.Programs) &&
		c.Name == cfg.Name && c.Arch == cfg.Arch && c.HT == cfg.HT &&
		c.Threads == cfg.Threads && c.Chips == cfg.Chips &&
		sameSlice(c.Contexts, cfg.Contexts) && sameSlice(c.Labels, cfg.Labels) &&
		o.Machine == opt.Machine && o.Policy == opt.Policy && o.Seed == opt.Seed &&
		math.Float64bits(o.Scale) == math.Float64bits(opt.Scale) &&
		math.Float64bits(o.WarmupFrac) == math.Float64bits(opt.WarmupFrac) &&
		o.CycleLimit == opt.CycleLimit && o.SampleInterval == opt.SampleInterval
}

// sameSlice reports whether a and b are the same slice: equal length
// over one backing array, or both empty with the same nil-ness, which
// is all their encoding can tell apart.
func sameSlice[T any](a, b []T) bool {
	if len(a) != len(b) {
		return false
	}
	if len(a) == 0 {
		return (a == nil) == (b == nil)
	}
	return &a[0] == &b[0]
}

// cellLabel renders the human-readable journal label for a cell.
func cellLabel(w Workload, cfg config.Configuration, opt Options) string {
	return fmt.Sprintf("%s|%s|seed=%d", w.Name(), cfg.Name, opt.Seed)
}

// runThroughCache serves a cell from the run cache or the replayed
// journal when possible, running compute and recording its result
// otherwise. It is the shared cache/journal tier of every backend that
// carries one: the local backend's compute is the cycle engine
// (runUncached), the Cached decorator's compute is its inner backend —
// which is how a sharding frontend keeps a resumable journal of cells
// that were simulated machines away. Decode failures — corrupt disk
// entries, schema drift — degrade to recomputation. The cached return
// reports whether the cell was served rather than computed; RunContext
// owns the progress and metric accounting built on it.
func runThroughCache(ctx context.Context, w Workload, cfg config.Configuration, opt Options, compute func() (*RunResult, bool, error)) (*RunResult, bool, error) {
	hash, err := CellHash(ctx, w, cfg, opt)
	if err != nil {
		// An unhashable key cannot happen with plain-data inputs; if it
		// does, fall back to the uncached path rather than failing the run.
		return compute()
	}
	if payload, ok := opt.Cache.Get(hash); ok {
		if res, err := decodeRunResult(payload); err == nil {
			return res, true, nil
		}
	}
	if payload, ok := opt.Journal.Replayed(hash); ok {
		if res, err := decodeRunResult(payload); err == nil {
			// Promote into the cache so later lookups skip the journal map.
			_ = opt.Cache.Put(hash, payload)
			return res, true, nil
		}
	}
	res, cached, err := compute()
	if err != nil {
		return nil, false, err
	}
	if payload, err := encodeRunResult(res); err == nil {
		// Best effort: a full disk or read-only journal must not fail the
		// simulation that just succeeded. Recorded even when the inner
		// backend reports cached (a remote worker's warm cache): this
		// tier's cache and journal are what make the *next* lookup, and a
		// resumed study, local hits.
		_ = opt.Cache.Put(hash, payload)
		_ = opt.Journal.Append(hash, cellLabel(w, cfg, opt), payload)
	}
	return res, cached, nil
}

// encodeRunResult serializes r for the run cache and journal: the
// bytes json.Marshal writes for the payload struct FuzzDecodeRunResult
// keeps as the reference — schema, config, wall cycles, then each
// program's benchmark, threads, cycles and non-zero counters (Metrics
// are not stored: they are re-derived from the counters on decode, so a
// cached result cannot disagree with what Derive produces today), then
// the sampler windows when there are any. null stands for no programs,
// and a program or window that counts nothing has no counters member.
// These bytes are what every v1 cache and journal entry holds: writing
// other bytes needs a runSchemaVersion bump. The error is always nil;
// the signature is json.Marshal's, which the pinned-payload tests call.
func encodeRunResult(r *RunResult) ([]byte, error) {
	// The payload is built on the stack and copied out at its length:
	// the run cache keeps it in memory, so spare capacity would stay
	// resident with it.
	var buf [4096]byte
	b := buf[:0]
	b = append(b, `{"schema":`...)
	b = jsonfmt.AppendString(b, runSchemaVersion)
	b = append(b, `,"config":`...)
	b = r.Config.AppendJSON(b)
	b = append(b, `,"wall_cycles":`...)
	b = strconv.AppendInt(b, r.WallCycles, 10)
	b = append(b, `,"programs":`...)
	if len(r.Programs) == 0 {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i := range r.Programs {
			p := &r.Programs[i]
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"benchmark":`...)
			b = jsonfmt.AppendString(b, p.Benchmark)
			b = append(b, `,"threads":`...)
			b = strconv.AppendInt(b, int64(p.Threads), 10)
			b = append(b, `,"cycles":`...)
			b = strconv.AppendInt(b, p.Cycles, 10)
			b = appendCounters(b, &p.Counters)
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	if len(r.Samples) > 0 {
		b = append(b, `,"samples":[`...)
		for i := range r.Samples {
			s := &r.Samples[i]
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"start":`...)
			b = strconv.AppendInt(b, s.Start, 10)
			b = append(b, `,"end":`...)
			b = strconv.AppendInt(b, s.End, 10)
			b = appendCounters(b, &s.Counters)
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	b = append(b, '}')
	return append([]byte(nil), b...), nil
}

// appendCounters appends the counters member of a program or window:
// nothing for an all-zero set.
func appendCounters(b []byte, set *counters.Set) []byte {
	if set.OrNil() == nil {
		return b
	}
	b = append(b, `,"counters":`...)
	return set.AppendJSON(b)
}

// decodeRunResult rebuilds a RunResult from a cache or journal payload.
// It scans the one layout encodeRunResult writes, which every v1 cache
// and journal entry holds: the payload's and config.Configuration's
// fields in declaration order, no whitespace, counters and samples
// present only when non-empty, null for a nil slice. Any other input —
// schema drift, unknown events, another layout, malformed JSON — is an
// error; callers treat it as a miss and recompute. Reading the same
// bytes another way needs no runSchemaVersion bump; only writing other
// bytes would.
func decodeRunResult(payload []byte) (*RunResult, error) {
	p := jsonfmt.NewScanner(payload)
	p.Lit(`{"schema":`)
	if schema := p.StrBytes(); !p.Failed() && string(schema) != runSchemaVersion {
		return nil, fmt.Errorf("core: cached result schema %q, want %q", schema, runSchemaVersion)
	}
	p.Lit(`,"config":`)
	res := &RunResult{Config: config.ScanJSON(&p)}
	p.Lit(`,"wall_cycles":`)
	res.WallCycles = p.Int64()
	p.Lit(`,"programs":`)
	if progs := jsonfmt.List(&p, scanProgram); len(progs) > 0 {
		res.Programs = progs
	}
	if p.Opt(`,"samples":`) {
		if samples := jsonfmt.List(&p, scanSample); len(samples) > 0 {
			res.Samples = samples
		}
	}
	p.Lit("}")
	if p.Failed() || len(p.Unread()) != 0 {
		return nil, fmt.Errorf("core: cached result is not a run-cache payload (at byte %d)", len(payload)-len(p.Unread()))
	}
	return res, nil
}

// scanProgram reads one program of the payload. Metrics are re-derived
// from the counters, so a cached result cannot disagree with Derive.
func scanProgram(p *jsonfmt.Scanner) ProgramResult {
	var r ProgramResult
	p.Lit(`{"benchmark":`)
	r.Benchmark = p.Str()
	p.Lit(`,"threads":`)
	r.Threads = p.Int()
	p.Lit(`,"cycles":`)
	r.Cycles = p.Int64()
	r.Counters = scanCounters(p)
	p.Lit("}")
	r.Metrics = counters.Derive(&r.Counters)
	return r
}

func scanSample(p *jsonfmt.Scanner) machine.Sample {
	var s machine.Sample
	p.Lit(`{"start":`)
	s.Start = p.Int64()
	p.Lit(`,"end":`)
	s.End = p.Int64()
	s.Counters = scanCounters(p)
	p.Lit("}")
	return s
}

// scanCounters consumes an optional "counters" member through the
// counter codec's scanner; an omitted one stands for the all-zero set.
func scanCounters(p *jsonfmt.Scanner) counters.Set {
	if !p.Opt(`,"counters":`) {
		return counters.Set{}
	}
	set, rest, err := counters.CutSet(p.Unread())
	p.Resume(rest, err)
	return set
}
