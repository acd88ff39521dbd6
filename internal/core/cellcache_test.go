package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"xeonomp/internal/config"
	"xeonomp/internal/journal"
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

// FuzzDecodeRunResult feeds hostile bytes to the decoder every run-cache
// and journal hit goes through: it must never panic, and whatever it
// accepts must re-encode to bytes that decode to the same result.
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
	f.Fuzz(func(t *testing.T, data []byte) {
		res, err := decodeRunResult(data)
		if err != nil {
			return
		}
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
