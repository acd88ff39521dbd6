package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"time"

	"xeonomp/internal/core"
	"xeonomp/internal/golden"
	"xeonomp/internal/journal"
	"xeonomp/internal/lmbench"
	"xeonomp/internal/runcache"
)

// study-cold is the cold `make check-golden` path without the cross
// study: LMbench calibration, then the single and pair studies at the
// golden scale and seed, checked against the golden set, then one more
// single study at the workload's simSeed — 122 cells on 2 workers over a
// fresh disk run cache and journal. The cycle engine does nearly all the
// work; runcache and journal only write; no HTTP runs.

// coldStep is one study of a study-cold pass.
type coldStep struct {
	study  string
	seed   uint64
	golden bool
}

// loadGoldens reads the golden set and checks its provenance before any
// study time is spent, as `xeonchar -check` does.
func loadGoldens(dir string, scale float64) (map[string]*golden.Artifact, error) {
	arts, err := golden.LoadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("loading golden set: %w", err)
	}
	out := map[string]*golden.Artifact{}
	for _, a := range arts {
		if a.Scale != 0 && a.Scale != scale {
			return nil, fmt.Errorf("golden artifact %s was generated at scale %g, not %g", a.Name, a.Scale, scale)
		}
		if a.Seed != 0 && a.Seed != 1 {
			return nil, fmt.Errorf("golden artifact %s was generated at seed %d, not 1", a.Name, a.Seed)
		}
		out[a.Name] = a
	}
	return out, nil
}

// lmbenchArtifacts are the two golden artifacts of one calibration, as
// the golden check exports them.
func lmbenchArtifacts(r lmbench.Result) []*golden.Artifact {
	return []*golden.Artifact{
		r.Artifact(lmbench.GoldenName, golden.Relative(1e-9)),
		r.Artifact(lmbench.PaperGoldenName, golden.Relative(0.05)),
	}
}

// coldPass is the result of one study-cold pass.
type coldPass struct {
	golden, seeded ledger
	latNs          []float64
	ok, checked    int
	wall           time.Duration
	seededWall     time.Duration // the single study at simSeed
}

// runColdPass runs one pass over a fresh cache and journal under dir.
// With rec set, cells go through core.Cached(engine) so the cache tier
// and the engine are timed apart; otherwise through plain core.Local()
// with per-cell latency recorded.
func runColdPass(ctx context.Context, cfg runConfig, rec *recorder, eng *engineBackend, steps []coldStep, stored map[string]*golden.Artifact, lm []*golden.Artifact, dir string) (*coldPass, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	cache, err := runcache.New(0, filepath.Join(dir, "cache"))
	if err != nil {
		return nil, err
	}
	jn, err := journal.Open(filepath.Join(dir, "journal.jsonl"))
	if err != nil {
		return nil, err
	}
	defer jn.Close()

	var inner core.Backend
	lat := &latencyBackend{inner: core.Local()}
	if rec != nil {
		inner = spanBackend{rec: rec, name: "core.cached", inner: core.Cached(eng)}
	} else {
		inner = lat
	}
	goldenCount := &countingBackend{inner: inner}
	seededCount := &countingBackend{inner: inner}

	p := &coldPass{}
	live := append([]*golden.Artifact(nil), lm...)
	t := time.Now()
	for _, st := range steps {
		b := seededCount
		if st.golden {
			b = goldenCount
		}
		opt, err := core.NewOptions(core.WithScale(cfg.goldenScale), core.WithSeed(st.seed), core.WithWorkers(2),
			core.WithCache(cache), core.WithJournal(jn), core.WithBackend(b))
		if err != nil {
			return nil, err
		}
		arts, walls, err := runStudies(ctx, rec, []string{st.study}, opt)
		if err != nil {
			return nil, err
		}
		if st.golden {
			live = append(live, arts...)
		} else {
			p.seededWall = walls[st.study]
		}
	}
	pass, err := checkGolden(ctx, rec, stored, live)
	if err != nil {
		return nil, err
	}
	p.wall = time.Since(t)
	for _, ok := range pass {
		p.checked++
		if ok {
			p.ok++
		}
	}
	p.golden, p.seeded = goldenCount.ledger(), seededCount.ledger()
	p.latNs = lat.ns
	return p, nil
}

func runStudyCold(ctx context.Context, cfg runConfig) (*outcome, error) {
	o := &outcome{layer: map[string]float64{}}
	o.hostRefMs[0] = hostRefMs()
	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
	}
	o.rec = rec

	var stored map[string]*golden.Artifact
	var lm lmbench.Result
	setUp := func() error {
		t := time.Now()
		var err error
		if stored, err = loadGoldens(cfg.goldenDir, cfg.goldenScale); err != nil {
			return err
		}
		if lm, o.lmbenchErrPct, err = measureLMbench(ctx, rec); err != nil {
			return err
		}
		o.setupS = append(o.setupS, time.Since(t).Seconds())
		return nil
	}
	// A set-up takes about 0.2 s. Half of the repetitions (rounded up)
	// run before the timed phase and the rest after it, so setup_s
	// samples the host at both ends of the run, not only in its first
	// two seconds.
	for len(o.setupS) < (cfg.setups+1)/2 {
		if err := setUp(); err != nil {
			return nil, err
		}
	}
	lmArts := lmbenchArtifacts(lm)

	r := rand.New(rand.NewPCG(cfg.seed, 0x5c01d))
	allSteps := []coldStep{{"single", 1, true}, {"pair", 1, true}, {"single", cfg.simSeed(), false}}
	order := func() []coldStep {
		s := append([]coldStep(nil), allSteps...)
		r.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
		return s
	}

	var probes probeResult
	eng := newEngineBackend(rec)
	if cfg.trace {
		var err error
		if probes, err = runProbes(); err != nil {
			return nil, err
		}
	}

	delta := newObsDelta()
	settle()
	rec.setPhase("timed")
	rt0 := readRuntime()
	mem := watchMemory()
	delta.begin()
	start := time.Now()
	passes := 0
	var last *coldPass
	// Whole passes run while at least half of one more still fits in
	// cfg.seconds, so a run overruns it by about half a pass at most. A
	// traced run makes one.
	for passes == 0 || (!cfg.trace && time.Since(start).Seconds()+last.wall.Seconds()/2 <= cfg.seconds) {
		p, err := runColdPass(ctx, cfg, rec, eng, order(), stored, lmArts, filepath.Join(cfg.work, fmt.Sprintf("cold-%d", passes)))
		if err != nil {
			mem.done()
			return nil, err
		}
		if passes == 0 {
			o.golden, o.seeded = p.golden, p.seeded
		} else if p.golden != o.golden || p.seeded != o.seeded {
			// The engine is deterministic: the same cells must count the
			// same events on every pass. A pass that does not verifies
			// none of its output.
			o.failed++
			p.ok = 0
		}
		passes++
		o.attempted += p.golden.Cells + p.seeded.Cells
		o.cells += p.golden.Cells + p.seeded.Cells
		o.ok += p.ok
		o.checked += p.checked
		o.latNs = append(o.latNs, p.latNs...)
		o.wall += p.wall
		last = p
	}
	o.hostRefMs[1] = hostRefMs()
	delta.end()
	rt := readRuntime().sub(rt0)
	heapPeak, rssPeak := mem.done()
	o.rssPeakMiB = rssPeak
	for len(o.setupS) < cfg.setups {
		if err := setUp(); err != nil {
			return nil, err
		}
	}
	if !cfg.trace {
		return o, nil
	}

	// The seeded study runs again untraced twice, then traced once more:
	// traced, untraced, untraced, traced on the same cells, so host drift
	// that is linear in time cancels out of the tracing overhead. The
	// untraced runs also give the allocation counts. The extra traced
	// run's spans carry the phase "overhead", outside the timed tables.
	seededOnly := []coldStep{{"single", cfg.simSeed(), false}}
	rec.pause()
	settle()
	u0 := readRuntime()
	var untracedWall time.Duration
	untracedCells := 0
	for i := 0; i < 2; i++ {
		u, err := runColdPass(ctx, cfg, nil, nil, seededOnly, stored, lmArts, filepath.Join(cfg.work, fmt.Sprintf("cold-untraced-%d", i)))
		if err != nil {
			return nil, err
		}
		untracedWall += u.seededWall
		untracedCells += u.seeded.Cells
	}
	allocLayers(o.layer, readRuntime().sub(u0), untracedCells)
	rec.setPhase("overhead")
	tr, err := runColdPass(ctx, cfg, rec, newEngineBackend(rec), seededOnly, stored, lmArts, filepath.Join(cfg.work, "cold-traced"))
	rec.pause()
	if err != nil {
		return nil, err
	}
	o.layer["bench.trace_overhead_frac"] = 1 - ratio(untracedWall.Seconds(), (last.seededWall+tr.seededWall).Seconds())

	var l ledger
	l.merge(o.golden)
	l.merge(o.seeded)
	commonLayers(o, probes, l, float64(passes), delta, rt, heapPeak)
	engineLayers(o.layer, eng, probes, delta)
	timed := rec.layers("timed")
	o.layer["core.worker_util"] = ratio(float64(timed["core.cached"].totalNs), 2*float64(o.wall))
	o.layer["core.cached_tier_ns_per_cell"] = ratio(float64(timed["core.cached"].totalNs-timed["machine.engine"].totalNs), float64(timed["core.cached"].count))
	o.layer["core.study_self_ms"] = float64(timed["core.study"].selfNs) / 1e6 / float64(passes)
	o.layer["core.artifacts_ms"] = float64(timed["core.artifacts"].totalNs) / 1e6 / float64(passes)
	o.layer["golden.compare_ms"] = float64(timed["golden.compare"].totalNs) / 1e6 / float64(passes)
	return o, nil
}
