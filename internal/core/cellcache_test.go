package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"xeonomp/internal/config"
	"xeonomp/internal/counters"
	"xeonomp/internal/journal"
	"xeonomp/internal/machine"
	"xeonomp/internal/profiles"
	"xeonomp/internal/runcache"
)

// TestColdWarmResumedStudiesIdentical is the acceptance pin for the run
// cache: a cold run, a warm run served entirely from the persistent
// cache, and a run resumed from a journal must produce identical Results
// maps — byte-identical counters, cycles, and derived metrics.
func TestColdWarmResumedStudiesIdentical(t *testing.T) {
	dir := t.TempDir()

	cold, err := runSingleStudy(quickOptions())
	if err != nil {
		t.Fatal(err)
	}

	// First cached run populates the disk tier; it must already agree
	// with the cold run (cache writes cannot perturb results).
	populate := quickOptions()
	cache1, err := runcache.New(0, filepath.Join(dir, "cache"))
	if err != nil {
		t.Fatal(err)
	}
	populate.Cache = cache1
	first, err := runSingleStudy(populate)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold.Results, first.Results) {
		t.Fatal("cache-populating run differs from cold run")
	}
	if s := cache1.Stats(); s.Misses == 0 || s.Hits() != 0 {
		t.Fatalf("populating run stats = %+v, want all misses", s)
	}

	// Warm run: a fresh process (fresh memory tier) over the same
	// directory must serve every cell from disk.
	warmOpt := quickOptions()
	cache2, err := runcache.New(0, filepath.Join(dir, "cache"))
	if err != nil {
		t.Fatal(err)
	}
	warmOpt.Cache = cache2
	warm, err := runSingleStudy(warmOpt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold.Results, warm.Results) {
		t.Fatal("warm (disk-cached) run differs from cold run")
	}
	if s := cache2.Stats(); s.Misses != 0 || s.DiskHits == 0 {
		t.Fatalf("warm run stats = %+v, want zero misses", s)
	}

	// Resumed run: record every cell to a journal, then replay it into a
	// new invocation with no cache directory at all.
	jpath := filepath.Join(dir, "run.jsonl")
	recOpt := quickOptions()
	rec, err := journal.Open(jpath)
	if err != nil {
		t.Fatal(err)
	}
	recOpt.Journal = rec
	if _, err := runSingleStudy(recOpt); err != nil {
		t.Fatal(err)
	}
	rec.Close()

	resOpt := quickOptions()
	replay, err := journal.Open(jpath)
	if err != nil {
		t.Fatal(err)
	}
	defer replay.Close()
	if replay.Len() == 0 {
		t.Fatal("journal recorded no cells")
	}
	resOpt.Journal = replay
	resOpt.Cache, err = runcache.New(0, "")
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := runSingleStudy(resOpt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold.Results, resumed.Results) {
		t.Fatal("resumed (journal-replayed) run differs from cold run")
	}
	if !reflect.DeepEqual(cold.Baselines, resumed.Baselines) {
		t.Fatal("resumed baselines differ from cold run")
	}
}

// TestCacheSharedAcrossStudies pins the motivating reuse: the pair study
// computes CG/FT, FT/FT and CG/CG cells that the cross-product study can
// then serve from cache.
func TestCacheSharedAcrossStudies(t *testing.T) {
	if testing.Short() {
		t.Skip("cross study at scale")
	}
	opt := quickOptions()
	var err error
	opt.Cache, err = runcache.New(0, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runPairStudy(opt); err != nil {
		t.Fatal(err)
	}
	afterPair := opt.Cache.Stats()
	if _, err := runCrossStudy(opt); err != nil {
		t.Fatal(err)
	}
	s := opt.Cache.Stats()
	if s.MemHits <= afterPair.MemHits {
		t.Fatalf("cross study reused no pair-study cells: %+v after %+v", s, afterPair)
	}
}

// TestRunResultCodecRoundTrip pins full-fidelity serialization,
// including the sampler time series.
func TestRunResultCodecRoundTrip(t *testing.T) {
	cg, err := profiles.ByName("CG")
	if err != nil {
		t.Fatal(err)
	}
	cmt, err := config.ByArch(config.CMT)
	if err != nil {
		t.Fatal(err)
	}
	opt := quickOptions()
	opt.SampleInterval = 200_000
	res, err := RunSingle(cg, cmt, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Samples) == 0 {
		t.Fatal("no samples to round-trip")
	}
	payload, err := encodeRunResult(res)
	if err != nil {
		t.Fatal(err)
	}
	back, err := decodeRunResult(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, back) {
		t.Fatal("codec round trip changed the result")
	}
}

// pinnedPayloads hold the bytes existing run caches and journals hold,
// encoded through a name-keyed counter map: a pair cell (CG/FT
// time-shared on Serial) and a cell with two sampler windows (CG on HT on
// -4-1), both at scale 0.01, seed 1, and a hand-built result whose
// program and sample count nothing, so their counters are left out.
// maxAllocs bounds decodeRunResult's allocations on each.
var pinnedPayloads = []struct {
	name, payload string
	maxAllocs     float64
}{
	{"pair", `{"schema":"xeonomp/run/v1","config":{"Name":"Serial","Arch":"Serial","HT":false,"Threads":1,"Chips":1,"Contexts":[{"Chip":0,"Core":0,"Thread":0}],"Labels":["B0"]},"wall_cycles":737387,"programs":[{"benchmark":"CG","threads":1,"cycles":737387,"counters":{"branch_mispredicted":435,"branch_retired":10436,"bus_demand_read":643,"bus_prefetch":30,"bus_rfo":215,"bus_writeback":4,"cycles":245336,"dtlb_access":34689,"dtlb_miss":757,"instructions":77202,"itlb_access":207,"itlb_miss":5,"l1d_access":34689,"l1d_miss":1620,"l2_access":1620,"l2_miss":858,"mem_read_bytes":56832,"mem_write_bytes":256,"prefetch_issued":30,"prefetch_useful":33,"stall_cycles":204540,"tc_access":6864,"tc_miss":166}},{"benchmark":"FT","threads":1,"cycles":365592,"counters":{"branch_mispredicted":462,"branch_retired":8284,"bus_demand_read":687,"bus_prefetch":22,"bus_rfo":234,"bus_writeback":121,"cycles":241518,"dtlb_access":32738,"dtlb_miss":864,"instructions":87060,"itlb_access":217,"itlb_miss":3,"l1d_access":32738,"l1d_miss":2085,"l2_access":2085,"l2_miss":921,"mem_read_bytes":60352,"mem_write_bytes":7744,"prefetch_issued":22,"prefetch_useful":22,"stall_cycles":191463,"tc_access":5521,"tc_miss":459}}]}`, 10},
	{"samples", `{"schema":"xeonomp/run/v1","config":{"Name":"HT on -4-1","Arch":"CMT","HT":true,"Threads":4,"Chips":1,"Contexts":[{"Chip":0,"Core":0,"Thread":0},{"Chip":0,"Core":0,"Thread":1},{"Chip":0,"Core":1,"Thread":0},{"Chip":0,"Core":1,"Thread":1}],"Labels":["A0","A1","A2","A3"]},"wall_cycles":111260,"programs":[{"benchmark":"CG","threads":4,"cycles":111260,"counters":{"barrier_cycles":10682,"branch_mispredicted":376,"branch_retired":10610,"bus_demand_read":611,"bus_prefetch":21,"bus_rfo":179,"cycles":299886,"dtlb_access":33664,"dtlb_miss":769,"instructions":77818,"itlb_access":70,"itlb_miss":10,"l1d_access":33664,"l1d_miss":1835,"l2_access":1835,"l2_miss":790,"mem_read_bytes":51904,"prefetch_issued":23,"prefetch_useful":23,"stall_cycles":239036,"tc_access":6924,"tc_miss":130}}],"samples":[{"start":1,"end":40001,"counters":{"branch_mispredicted":38,"branch_retired":772,"bus_demand_read":27,"bus_prefetch":2,"bus_rfo":9,"cycles":14964,"dtlb_access":1596,"dtlb_miss":35,"instructions":4200,"itlb_access":4,"l1d_access":1596,"l1d_miss":92,"l2_access":92,"l2_miss":36,"mem_read_bytes":2432,"prefetch_issued":2,"prefetch_useful":3,"stall_cycles":11941,"tc_access":445,"tc_miss":10}},{"start":40001,"end":80001,"counters":{"branch_mispredicted":204,"branch_retired":6235,"bus_demand_read":338,"bus_prefetch":10,"bus_rfo":108,"cycles":160460,"dtlb_access":18157,"dtlb_miss":428,"instructions":44740,"itlb_access":38,"itlb_miss":5,"l1d_access":18157,"l1d_miss":1016,"l2_access":1016,"l2_miss":446,"mem_read_bytes":29184,"prefetch_issued":11,"prefetch_useful":10,"stall_cycles":131481,"tc_access":3891,"tc_miss":68}}]}`, 13},
	{"zero counters", `{"schema":"xeonomp/run/v1","config":{"Name":"Serial","Arch":"Serial","HT":false,"Threads":1,"Chips":1,"Contexts":[{"Chip":0,"Core":0,"Thread":0}],"Labels":["B0"]},"wall_cycles":0,"programs":[{"benchmark":"CG","threads":1,"cycles":0}],"samples":[{"start":1,"end":2}]}`, 10},
}

// TestPinnedPayloadsRoundTrip pins the payload bytes every existing disk
// cache and journal holds: each pinned payload decodes and re-encodes
// byte-identically. Reordering a field of cellResult or changing the
// counter encoding fails here; such a change needs a runSchemaVersion
// bump.
func TestPinnedPayloadsRoundTrip(t *testing.T) {
	for _, p := range pinnedPayloads {
		res, err := decodeRunResult([]byte(p.payload))
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		if p.name == "samples" && len(res.Samples) != 2 {
			t.Fatalf("%s: decoded %d samples, want 2", p.name, len(res.Samples))
		}
		again, err := encodeRunResult(res)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		if string(again) != p.payload {
			t.Fatalf("%s: re-encoded payload differs:\n got %s\nwant %s", p.name, again, p.payload)
		}
	}
}

// TestDecodeRunResultAllocs guards the warm-hit decode's allocations.
func TestDecodeRunResultAllocs(t *testing.T) {
	for _, p := range pinnedPayloads {
		payload := []byte(p.payload)
		n := testing.AllocsPerRun(50, func() {
			if _, err := decodeRunResult(payload); err != nil {
				t.Fatal(err)
			}
		})
		if n > p.maxAllocs {
			t.Errorf("%s: decodeRunResult makes %.0f allocations, want at most %.0f", p.name, n, p.maxAllocs)
		}
	}
}

// BenchmarkDecodeRunResult times the decode every warm cell hit runs,
// on each pinned payload.
func BenchmarkDecodeRunResult(b *testing.B) {
	for _, p := range pinnedPayloads {
		payload := []byte(p.payload)
		b.Run(p.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(payload)))
			for i := 0; i < b.N; i++ {
				if _, err := decodeRunResult(payload); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// cellProgram, cellSample and cellResult are the payload layout as Go
// structs: json.Marshal of a cellResult is what every v1 cache and
// journal entry holds. They are the reference encodeRunResult and
// decodeRunResult are held to.
type cellProgram struct {
	Benchmark string        `json:"benchmark"`
	Threads   int           `json:"threads"`
	Cycles    int64         `json:"cycles"`
	Counters  *counters.Set `json:"counters,omitempty"`
}

type cellSample struct {
	Start    int64         `json:"start"`
	End      int64         `json:"end"`
	Counters *counters.Set `json:"counters,omitempty"`
}

type cellResult struct {
	Schema     string               `json:"schema"`
	Config     config.Configuration `json:"config"`
	WallCycles int64                `json:"wall_cycles"`
	Programs   []cellProgram        `json:"programs"`
	Samples    []cellSample         `json:"samples,omitempty"`
}

// jsonEncode is the encoder encodeRunResult replaced, kept as the
// reference it is held to: r converted to a cellResult, then
// json.Marshal.
func jsonEncode(r *RunResult) ([]byte, error) {
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

// jsonDecode is the decoder decodeRunResult replaced, kept as the
// reference it is held to: encoding/json into cellResult, then the same
// conversion to a RunResult.
func jsonDecode(payload []byte) (cellResult, *RunResult, error) {
	var in cellResult
	if err := json.Unmarshal(payload, &in); err != nil {
		return in, nil, err
	}
	if in.Schema != runSchemaVersion {
		return in, nil, fmt.Errorf("schema %q", in.Schema)
	}
	res := &RunResult{Config: in.Config, WallCycles: in.WallCycles}
	for _, p := range in.Programs {
		var set counters.Set
		if p.Counters != nil {
			set = *p.Counters
		}
		res.Programs = append(res.Programs, ProgramResult{
			Benchmark: p.Benchmark, Threads: p.Threads, Cycles: p.Cycles,
			Counters: set, Metrics: counters.Derive(&set),
		})
	}
	for _, s := range in.Samples {
		var set counters.Set
		if s.Counters != nil {
			set = *s.Counters
		}
		res.Samples = append(res.Samples, machine.Sample{Start: s.Start, End: s.End, Counters: set})
	}
	return in, res, nil
}

// FuzzDecodeRunResult feeds hostile bytes to the decoder every run-cache
// and journal hit goes through. It must never panic; whatever it accepts,
// the encoding/json reference must accept with the same result; whatever
// cellResult the reference reads must, written back by json.Marshal, be
// accepted; an accepted result must re-encode to bytes that decode to
// the same result; and encodeRunResult must write json.Marshal's bytes
// for every result either decoder reads.
func FuzzDecodeRunResult(f *testing.F) {
	cg, err := profiles.ByName("CG")
	if err != nil {
		f.Fatal(err)
	}
	cmt, err := config.ByArch(config.CMT)
	if err != nil {
		f.Fatal(err)
	}
	opt := quickOptions()
	opt.SampleInterval = 200_000
	res, err := RunSingle(cg, cmt, opt)
	if err != nil {
		f.Fatal(err)
	}
	payload, err := encodeRunResult(res)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(payload)
	f.Add(payload[:len(payload)/2])
	f.Add(bytes.Replace(payload, []byte(runSchemaVersion), []byte("xeonomp/run/v0"), 1))
	for _, p := range pinnedPayloads {
		f.Add([]byte(p.payload))
	}
	// Variants of the pair payload: layouts json.Marshal also writes,
	// escapes and non-ASCII the reference unescapes, and inputs only the
	// reference (or neither) accepts.
	pair := pinnedPayloads[0].payload
	for _, r := range [][2]string{
		{`"Contexts":[{"Chip":0,"Core":0,"Thread":0}]`, `"Contexts":[]`},
		{`"Contexts":[{"Chip":0,"Core":0,"Thread":0}]`, `"Contexts":null`},
		{`"Labels":["B0"]`, `"Labels":null`},
		{`"Labels":["B0"]`, `"Labels":["B\u0030","\u00e9\u2028","<&>","\"\\/"]`},
		{`"Labels":["B0"]`, "\"Labels\":[\"\xc3\xa9\",\"\xff\"]"},
		{`"Labels":["B0"]`, "\"Labels\":[\"\x01\"]"},
		{`"Name":"Serial"`, `"Name":"Seri\u0061l"`},
		{`"schema":"xeonomp/run/v1"`, `"schema":"xeonomp\/run\/v1"`},
		{`"wall_cycles":737387`, `"wall_cycles":-0`},
		{`"wall_cycles":737387`, `"wall_cycles":-9223372036854775808`},
		{`"wall_cycles":737387`, `"wall_cycles":9223372036854775808`},
		{`"wall_cycles":737387`, `"wall_cycles":737387.0`},
		{`"wall_cycles":737387`, `"wall_cycles":7e5`},
		{`"wall_cycles":737387`, `"wall_cycles":0737387`},
		{`"Threads":1`, `"Threads":99999999999999999999`},
		{`"HT":false`, `"HT":null`},
		{`"counters":{"branch_mispredicted":435`, `"counters":{ "branch_mispredicted" : 435 `},
		{`"counters":{"branch_mispredicted":435`, `"counters":{"cycles":1,"branch_mispredicted":435`},
		{`"wall_cycles":737387`, ` "wall_cycles" : 737387`},
		{`{"schema"`, `{"Schema"`},
	} {
		f.Add([]byte(strings.Replace(pair, r[0], r[1], 1)))
	}
	f.Add([]byte(pair + " "))
	f.Add([]byte(strings.Replace(pair, `]}`, `],"samples":[]}`, 1)))
	f.Add([]byte(strings.Replace(pair, `]}`, `],"samples":null}`, 1)))
	f.Add([]byte(strings.Replace(pair, `"cycles":365592`, `"cycles":365592,"counters":{}`, 1)))
	zero := pinnedPayloads[2].payload
	f.Add([]byte(strings.Replace(zero, `"cycles":0`, `"cycles":0,"counters":null`, 1)))
	for _, progs := range []string{`[]`, `null`} {
		f.Add([]byte(strings.Replace(zero, `[{"benchmark":"CG","threads":1,"cycles":0}]`, progs, 1)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		in, want, refErr := jsonDecode(data)
		if refErr == nil {
			checkEncodeMatchesJSON(t, want)
			// Any cellResult json.Marshal writes is in the layout.
			again, err := json.Marshal(in)
			if err != nil {
				t.Fatal(err)
			}
			got, err := decodeRunResult(again)
			if err != nil {
				t.Fatalf("json.Marshal writes %s, which the decoder rejects: %v", again, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: decoder and reference differ:\n%+v\n%+v", again, got, want)
			}
		}
		res, err := decodeRunResult(data)
		if err != nil {
			return
		}
		if refErr != nil {
			t.Fatalf("decoder accepts what the reference rejects (%v)", refErr)
		}
		if !reflect.DeepEqual(res, want) {
			t.Fatalf("decoder and reference differ:\n%+v\n%+v", res, want)
		}
		checkEncodeMatchesJSON(t, res)
		again, err := encodeRunResult(res)
		if err != nil {
			t.Fatalf("decoded result does not re-encode: %v", err)
		}
		back, err := decodeRunResult(again)
		if err != nil {
			t.Fatalf("re-encoded result does not decode: %v", err)
		}
		if !reflect.DeepEqual(res, back) {
			t.Fatalf("decode, encode, decode changed the result:\n%+v\n%+v", res, back)
		}
	})
}

// checkEncodeMatchesJSON fails t unless encodeRunResult writes the
// reference encoder's bytes for r.
func checkEncodeMatchesJSON(t *testing.T, r *RunResult) {
	t.Helper()
	want, err := jsonEncode(r)
	if err != nil {
		t.Fatal(err)
	}
	got, err := encodeRunResult(r)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("encodeRunResult differs from json.Marshal:\n got %s\nwant %s", got, want)
	}
}

// BenchmarkEncodeRunResult times the payload write every computed cell
// (and every cell a sharding frontend receives) goes through before its
// cache Put and journal append, on each pinned payload.
func BenchmarkEncodeRunResult(b *testing.B) {
	for _, p := range pinnedPayloads {
		res, err := decodeRunResult([]byte(p.payload))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(p.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(p.payload)))
			for i := 0; i < b.N; i++ {
				if _, err := encodeRunResult(res); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestCorruptCacheEntryRecomputed pins that a damaged disk entry is
// recomputed, never trusted.
func TestCorruptCacheEntryRecomputed(t *testing.T) {
	dir := t.TempDir()
	cg, err := profiles.ByName("CG")
	if err != nil {
		t.Fatal(err)
	}
	serial, err := config.ByArch(config.Serial)
	if err != nil {
		t.Fatal(err)
	}
	opt := quickOptions()
	opt.Cache, err = runcache.New(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := RunSingle(cg, serial, opt)
	if err != nil {
		t.Fatal(err)
	}
	// Damage every stored entry.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) == 0 {
		t.Fatal("nothing cached on disk")
	}
	for _, e := range ents {
		if err := os.WriteFile(filepath.Join(dir, e.Name()), []byte("junk"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	fresh := quickOptions()
	fresh.Cache, err = runcache.New(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	again, err := RunSingle(cg, serial, fresh)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold, again) {
		t.Fatal("recomputed result differs after cache corruption")
	}
	if s := fresh.Cache.Stats(); s.DiskErrors == 0 {
		t.Fatalf("stats = %+v, want disk errors counted", s)
	}
}

// TestForEachJobAggregatesErrors pins that concurrent worker failures
// are all reported, not just the first.
func TestForEachJobAggregatesErrors(t *testing.T) {
	var gate sync.WaitGroup
	gate.Add(2)
	err := forEachJob(context.Background(), 2, 2, func(_ context.Context, i int) error {
		// Both workers enter before either fails, so neither can be
		// suppressed by the other's failure flag.
		gate.Done()
		gate.Wait()
		return fmt.Errorf("job %d failed", i)
	})
	if err == nil {
		t.Fatal("no error returned")
	}
	for _, want := range []string{"job 0 failed", "job 1 failed"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("aggregated error %q missing %q", err, want)
		}
	}
}

// TestForEachJobFailureDoesNotDeadlock pins the drain contract: an early
// failure with far more jobs than workers must not strand the producer.
// Before the errors.Join rework, a failed worker stopped reading the job
// channel and this test hung.
func TestForEachJobFailureDoesNotDeadlock(t *testing.T) {
	boom := errors.New("boom")
	ran := 0
	var mu sync.Mutex
	err := forEachJob(context.Background(), 10_000, 4, func(_ context.Context, i int) error {
		mu.Lock()
		ran++
		mu.Unlock()
		if i == 0 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if ran == 10_000 {
		t.Fatal("failure did not short-circuit remaining jobs")
	}
}

func TestForEachJobSequentialStopsAtFirstError(t *testing.T) {
	calls := 0
	err := forEachJob(context.Background(), 10, 1, func(_ context.Context, i int) error {
		calls++
		if i == 2 {
			return errors.New("stop")
		}
		return nil
	})
	if err == nil || calls != 3 {
		t.Fatalf("err = %v after %d calls", err, calls)
	}
}
