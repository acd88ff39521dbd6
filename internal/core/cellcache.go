package core

import (
	"encoding/json"
	"fmt"
	"math"

	"xeonomp/internal/config"
	"xeonomp/internal/counters"
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
func runThroughCache(w Workload, cfg config.Configuration, opt Options, compute func() (*RunResult, bool, error)) (*RunResult, bool, error) {
	hash, err := CacheKey(w, cfg, opt).Hash()
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

// cellProgram is the cache encoding of one ProgramResult. Metrics are
// not stored: they are re-derived from the counters on decode, so a
// cached result cannot disagree with what Derive produces today.
type cellProgram struct {
	Benchmark string        `json:"benchmark"`
	Threads   int           `json:"threads"`
	Cycles    int64         `json:"cycles"`
	Counters  *counters.Set `json:"counters,omitempty"`
}

// cellSample is the cache encoding of one sampler window.
type cellSample struct {
	Start    int64         `json:"start"`
	End      int64         `json:"end"`
	Counters *counters.Set `json:"counters,omitempty"`
}

// cellResult is the full-fidelity cache encoding of a RunResult.
// decodeRunResult reads its json.Marshal layout, config.Configuration's
// included, field by field: changing either layout needs the decoder
// changed alongside and a runSchemaVersion bump.
type cellResult struct {
	Schema     string               `json:"schema"`
	Config     config.Configuration `json:"config"`
	WallCycles int64                `json:"wall_cycles"`
	Programs   []cellProgram        `json:"programs"`
	Samples    []cellSample         `json:"samples,omitempty"`
}

// encodeRunResult serializes r for the run cache and journal.
func encodeRunResult(r *RunResult) ([]byte, error) {
	out := cellResult{
		Schema:     runSchemaVersion,
		Config:     r.Config,
		WallCycles: r.WallCycles,
	}
	for i := range r.Programs {
		p := &r.Programs[i]
		out.Programs = append(out.Programs, cellProgram{
			Benchmark: p.Benchmark,
			Threads:   p.Threads,
			Cycles:    p.Cycles,
			Counters:  p.Counters.OrNil(),
		})
	}
	for i := range r.Samples {
		s := &r.Samples[i]
		out.Samples = append(out.Samples, cellSample{
			Start:    s.Start,
			End:      s.End,
			Counters: s.Counters.OrNil(),
		})
	}
	return json.Marshal(out)
}

// decodeRunResult rebuilds a RunResult from a cache or journal payload.
// It scans the one layout encodeRunResult's json.Marshal writes, which
// every v1 cache and journal entry holds: cellResult's and
// config.Configuration's fields in declaration order, no whitespace,
// counters and samples present only when non-empty, null for a nil
// slice. Any other input — schema drift, unknown events, another layout,
// malformed JSON — is an error; callers treat it as a miss and
// recompute. Reading the same bytes another way needs no
// runSchemaVersion bump; only writing other bytes would.
func decodeRunResult(payload []byte) (*RunResult, error) {
	p := payloadScanner{d: payload}
	p.lit(`{"schema":`)
	if schema := p.strBytes(); !p.bad && string(schema) != runSchemaVersion {
		return nil, fmt.Errorf("core: cached result schema %q, want %q", schema, runSchemaVersion)
	}
	p.lit(`,"config":`)
	res := &RunResult{Config: p.config()}
	p.lit(`,"wall_cycles":`)
	res.WallCycles = p.int64()
	p.lit(`,"programs":`)
	if progs := list(&p, (*payloadScanner).program); len(progs) > 0 {
		res.Programs = progs
	}
	if p.opt(`,"samples":`) {
		if samples := list(&p, (*payloadScanner).sample); len(samples) > 0 {
			res.Samples = samples
		}
	}
	p.lit("}")
	if p.bad || len(p.d) != 0 {
		return nil, fmt.Errorf("core: cached result is not a run-cache payload (at byte %d)", len(payload)-len(p.d))
	}
	return res, nil
}

// payloadScanner reads a payload in encodeRunResult's layout. The first
// mismatch sets bad and leaves d at it; every later call then does
// nothing, so a decode reads as the layout and checks bad once.
type payloadScanner struct {
	d   []byte
	bad bool
}

// opt consumes l if the input continues with it and reports whether it
// did.
func (p *payloadScanner) opt(l string) bool {
	if p.bad || len(p.d) < len(l) || string(p.d[:len(l)]) != l {
		return false
	}
	p.d = p.d[len(l):]
	return true
}

// lit consumes l, which the layout requires here.
func (p *payloadScanner) lit(l string) {
	if !p.opt(l) {
		p.bad = true
	}
}

// strBytes consumes a JSON string and returns its value: in place when
// the string is printable ASCII without escapes, as json.Marshal writes
// every name the simulator uses, and unescaped by encoding/json, for
// that string alone, otherwise.
func (p *payloadScanner) strBytes() []byte {
	if p.bad || len(p.d) == 0 || p.d[0] != '"' {
		p.bad = true
		return nil
	}
	plain := true
	for i := 1; i < len(p.d); i++ {
		switch c := p.d[i]; {
		case c == '"':
			tok := p.d[:i+1]
			p.d = p.d[i+1:]
			if plain {
				return tok[1:i]
			}
			var s string
			if json.Unmarshal(tok, &s) != nil {
				p.bad = true
				return nil
			}
			return []byte(s)
		case c == '\\':
			plain = false
			i++
		case c < 0x20:
			p.bad = true
			return nil
		case c >= 0x80:
			plain = false
		}
	}
	p.bad = true
	return nil
}

func (p *payloadScanner) str() string { return string(p.strBytes()) }

// bool consumes a JSON boolean.
func (p *payloadScanner) bool() bool {
	if p.opt("true") {
		return true
	}
	p.lit("false")
	return false
}

// int64 consumes a JSON integer in int64 range: -?(0|[1-9][0-9]*), what
// encoding/json accepts for an int64 field.
func (p *payloadScanner) int64() int64 {
	if p.bad {
		return 0
	}
	d := p.d
	neg := len(d) > 0 && d[0] == '-'
	if neg {
		d = d[1:]
	}
	if len(d) == 0 || d[0] < '0' || d[0] > '9' {
		p.bad = true
		return 0
	}
	var u uint64
	i := 1
	if u = uint64(d[0] - '0'); u != 0 {
		for ; i < len(d) && '0' <= d[i] && d[i] <= '9'; i++ {
			if u > (math.MaxUint64-9)/10 {
				p.bad = true
				return 0
			}
			u = u*10 + uint64(d[i]-'0')
		}
	}
	limit := uint64(math.MaxInt64)
	if neg {
		limit++
	}
	if u > limit {
		p.bad = true
		return 0
	}
	p.d = d[i:]
	if neg {
		return -int64(u)
	}
	return int64(u)
}

// int consumes a JSON integer in int range.
func (p *payloadScanner) int() int {
	v := p.int64()
	if int64(int(v)) != v {
		p.bad = true
	}
	return int(v)
}

// list consumes a JSON array of elements read by elem, or null. As in
// encoding/json, null gives a nil slice and [] an empty one. The
// elements are gathered on the stack and copied out once.
func list[T any](p *payloadScanner, elem func(*payloadScanner) T) []T {
	if p.opt("null") {
		return nil
	}
	p.lit("[")
	if p.bad {
		return nil
	}
	var buf [8]T
	out := buf[:0]
	if !p.opt("]") {
		for {
			out = append(out, elem(p))
			if !p.opt(",") {
				break
			}
		}
		p.lit("]")
	}
	return append(make([]T, 0, len(out)), out...)
}

func (p *payloadScanner) config() config.Configuration {
	var c config.Configuration
	p.lit(`{"Name":`)
	c.Name = p.str()
	p.lit(`,"Arch":`)
	c.Arch = config.Arch(p.str())
	p.lit(`,"HT":`)
	c.HT = p.bool()
	p.lit(`,"Threads":`)
	c.Threads = p.int()
	p.lit(`,"Chips":`)
	c.Chips = p.int()
	p.lit(`,"Contexts":`)
	c.Contexts = list(p, (*payloadScanner).ctxID)
	p.lit(`,"Labels":`)
	c.Labels = list(p, (*payloadScanner).str)
	p.lit("}")
	return c
}

func (p *payloadScanner) ctxID() config.CtxID {
	var id config.CtxID
	p.lit(`{"Chip":`)
	id.Chip = p.int()
	p.lit(`,"Core":`)
	id.Core = p.int()
	p.lit(`,"Thread":`)
	id.Thread = p.int()
	p.lit("}")
	return id
}

// program reads one cellProgram. Metrics are re-derived from the
// counters, so a cached result cannot disagree with Derive.
func (p *payloadScanner) program() ProgramResult {
	var r ProgramResult
	p.lit(`{"benchmark":`)
	r.Benchmark = p.str()
	p.lit(`,"threads":`)
	r.Threads = p.int()
	p.lit(`,"cycles":`)
	r.Cycles = p.int64()
	r.Counters = p.counters()
	p.lit("}")
	r.Metrics = counters.Derive(&r.Counters)
	return r
}

func (p *payloadScanner) sample() machine.Sample {
	var s machine.Sample
	p.lit(`{"start":`)
	s.Start = p.int64()
	p.lit(`,"end":`)
	s.End = p.int64()
	s.Counters = p.counters()
	p.lit("}")
	return s
}

// counters consumes an optional "counters" member through the counter
// codec's scanner; an omitted one stands for the all-zero set.
func (p *payloadScanner) counters() counters.Set {
	if !p.opt(`,"counters":`) {
		return counters.Set{}
	}
	set, rest, err := counters.CutSet(p.d)
	if err != nil {
		p.bad = true
		return counters.Set{}
	}
	p.d = rest
	return set
}
