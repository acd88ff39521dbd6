package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"time"

	"xeonomp/internal/core"
	"xeonomp/internal/runcache"
)

// rerun-warm is the second invocation of `xeonchar -all -cache-dir`:
// set-up fills a disk run cache with the single, pair and cross studies
// (227 cells); each timed pass reruns all three on 2 workers through a
// fresh runcache.Cache over that directory, so the memory tier starts
// empty and every cell is a disk-tier hit, and ends with canonical
// artifacts. The engine does nothing while timed: disk reads, cell
// decode, CacheKey hashing, study reductions and golden marshalling do
// all the work.

// warmPass runs one pass over the filled directory and verifies every
// artifact against the reference.
func warmPass(ctx context.Context, cfg runConfig, rec *recorder, eng *engineBackend, ref *reference, dir string, order []string) (cells, ok, checked int, same bool, err error) {
	cache, err := runcache.New(0, dir)
	if err != nil {
		return 0, 0, 0, false, err
	}
	var inner core.Backend = core.Local()
	if rec != nil {
		inner = spanBackend{rec: rec, name: "core.cached", inner: core.Cached(eng)}
	}
	counting := &countingBackend{inner: inner}
	opt, err := core.NewOptions(core.WithScale(cfg.scale), core.WithSeed(cfg.simSeed()), core.WithWorkers(2),
		core.WithCache(cache), core.WithBackend(counting))
	if err != nil {
		return 0, 0, 0, false, err
	}
	arts, _, err := runStudies(ctx, rec, order, opt)
	if err != nil {
		return 0, 0, 0, false, err
	}
	identical := map[string]bool{}
	for _, a := range arts {
		_, end := rec.start(ctx, "golden.marshal")
		b, err := a.MarshalCanonical()
		end()
		if err != nil {
			return 0, 0, 0, false, err
		}
		identical[a.Name] = ref.sameBytes(cfg, a.Name, b)
	}
	within, err := checkGolden(ctx, rec, ref.art, arts)
	if err != nil {
		return 0, 0, 0, false, err
	}
	for name, same := range identical {
		checked++
		if same && within[name] {
			ok++
		}
	}
	l := counting.ledger()
	if same = l == ref.ledger; !same {
		// Other simulated counts than set-up's mean other cells than the
		// reference was made from: none of the pass's output is verified.
		ok = 0
	}
	return l.Cells, ok, checked, same, nil
}

func runRerunWarm(ctx context.Context, cfg runConfig) (*outcome, error) {
	o := &outcome{layer: map[string]float64{}}
	o.hostRefMs[0] = hostRefMs()
	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
	}
	o.rec = rec
	eng := newEngineBackend(rec)
	fillDelta := newObsDelta()
	fillDelta.begin()

	var ref *reference
	var dir string
	for i := 0; i < cfg.setups; i++ {
		t := time.Now()
		d := filepath.Join(cfg.work, fmt.Sprintf("warm-fill-%d", i))
		cache, err := runcache.New(0, d)
		if err != nil {
			return nil, err
		}
		var fill core.Backend = core.Local()
		if rec != nil {
			fill = spanBackend{rec: rec, name: "core.cached", inner: core.Cached(eng)}
		}
		opt, err := core.NewOptions(core.WithScale(cfg.scale), core.WithSeed(cfg.simSeed()), core.WithWorkers(2),
			core.WithCache(cache), core.WithBackend(fill))
		if err != nil {
			return nil, err
		}
		if ref, err = newReference(ctx, rec, opt); err != nil {
			return nil, err
		}
		o.setupS = append(o.setupS, time.Since(t).Seconds())
		if dir != "" {
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
		}
		dir = d
	}
	fillDelta.end()
	o.seeded = ref.ledger
	var err error
	if _, o.lmbenchErrPct, err = measureLMbench(ctx, rec); err != nil {
		return nil, err
	}

	var probes probeResult
	if cfg.trace {
		if probes, err = runProbes(); err != nil {
			return nil, err
		}
	}

	r := rand.New(rand.NewPCG(cfg.seed, 0x3a53))
	ph, err := runPasses(cfg, rec, o, func(prec *recorder) (passStats, error) {
		t := time.Now()
		cells, ok, checked, same, err := warmPass(ctx, cfg, prec, eng, ref, dir, cfg.order(r, core.StudyNames()))
		wall := time.Since(t)
		p := passStats{cells: cells, attempted: 1, ok: ok, checked: checked, wall: wall, latNs: []float64{float64(wall)}}
		if !same {
			p.failed = 1
		}
		return p, err
	})
	if err != nil {
		return nil, err
	}
	if !cfg.trace {
		return o, nil
	}

	tracedPasses := ph.tracedPasses()
	commonLayers(o, probes, ref.ledger, tracedPasses, ph.delta, ph.untracedRT, ph.heapPeakMiB)
	engineLayers(o.layer, eng, probes, fillDelta)
	allocLayers(o.layer, ph.untracedRT, ph.untraced.cells)
	timed := rec.layers("timed")
	o.layer["core.worker_util"] = ratio(float64(timed["core.cached"].totalNs), 2*float64(ph.traced.wall))
	o.layer["core.cached_tier_ns_per_cell"] = ratio(float64(timed["core.cached"].totalNs-timed["machine.engine"].totalNs), float64(timed["core.cached"].count))
	o.layer["core.study_self_ms"] = float64(timed["core.study"].selfNs) / 1e6 / tracedPasses
	o.layer["core.artifacts_ms"] = float64(timed["core.artifacts"].totalNs) / 1e6 / tracedPasses
	o.layer["golden.marshal_ms"] = float64(timed["golden.marshal"].totalNs) / 1e6 / tracedPasses
	o.layer["golden.compare_ms"] = float64(timed["golden.compare"].totalNs) / 1e6 / tracedPasses
	o.layer["bench.trace_overhead_frac"] = ph.overhead()
	return o, nil
}
