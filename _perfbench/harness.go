package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"time"

	"xeonomp/internal/core"
	"xeonomp/internal/counters"
	"xeonomp/internal/golden"
	"xeonomp/internal/lmbench"
	"xeonomp/internal/machine"
	"xeonomp/internal/obs"
)

// metricDef names one reported metric and its unit. The two catalogues
// are the contract with BENCHMARK.json; TestTinyRunsEmitEveryMetric
// holds them to it.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cells_per_s", "cells/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"ok_frac", "ratio"},
	{"rss_peak_mb", "MiB"},
	{"lmbench_err_pct", "%"},
}

// perLayer is every metric of the traced run. A layer that does not run
// in a workload reports 0 there (see README.md for which layers each
// workload exercises).
var perLayer = []metricDef{
	// Engine component probes.
	{"trace.next_ns", "ns"},
	{"cache.lookup_ns", "ns"},
	{"cache.fill_ns", "ns"},
	{"tlb.access_ns", "ns"},
	{"branch.resolve_ns", "ns"},
	{"prefetch.on_miss_ns", "ns"},
	{"bus.issue_ns", "ns"},
	// machine/cpu host cost.
	{"machine.host_ns_per_sim_cycle", "ns"},
	{"machine.host_ns_per_sim_cycle.serial", "ns"},
	{"machine.host_ns_per_sim_cycle.ht", "ns"},
	{"machine.host_ns_per_sim_cycle.cmp", "ns"},
	{"machine.host_ns_per_sim_cycle.pair", "ns"},
	{"machine.sim_mcycles_per_s", "Mcycles/s"},
	{"machine.pool_reuse_frac", "ratio"},
	{"machine.explained_frac", "ratio"},
	// Simulated counts: exact, per pass.
	{"machine.sim_cycles", "count"},
	{"cpu.instructions", "count"},
	{"cpu.stall_cycles", "count"},
	{"cache.l1d_miss", "count"},
	{"cache.l2_miss", "count"},
	{"cache.tc_miss", "count"},
	{"tlb.itlb_miss", "count"},
	{"tlb.dtlb_miss", "count"},
	{"branch.mispredicted", "count"},
	{"bus.transactions", "count"},
	{"prefetch.issued", "count"},
	{"prefetch.useful_frac", "ratio"},
	// core.
	{"core.allocs_per_cell", "count"},
	{"core.alloc_kb_per_cell", "KiB"},
	{"core.worker_util", "ratio"},
	{"core.cached_tier_ns_per_cell", "ns"},
	{"core.study_self_ms", "ms"},
	{"core.artifacts_ms", "ms"},
	{"core.flight_shared", "count"},
	// runcache and journal.
	{"runcache.key_hash_ns", "ns"},
	{"runcache.lookup_ns", "ns"},
	{"runcache.disk_hit_frac", "ratio"},
	{"runcache.mem_hit_frac", "ratio"},
	{"journal.appends", "count"},
	{"journal.append_ns", "ns"},
	// golden and lmbench.
	{"golden.marshal_ms", "ms"},
	{"golden.compare_ms", "ms"},
	{"lmbench.measure_ms", "ms"},
	// api, server, shard.
	{"api.submit_ms", "ms"},
	{"api.follow_ms", "ms"},
	{"api.artifact_ms", "ms"},
	{"server.request_ns", "ns"},
	{"server.frontend_backend_ns_per_cell", "ns"},
	{"server.worker_backend_ns_per_cell", "ns"},
	{"shard.hop_ns_per_cell", "ns"},
	{"shard.cells_sent", "count"},
	{"shard.cells_sent.0", "count"},
	{"shard.cells_sent.1", "count"},
	{"shard.balance", "ratio"},
	{"shard.retries", "count"},
	{"shard.failovers", "count"},
	// Runtime, host, and the benchmark itself.
	{"go.gc_cpu_frac", "ratio"},
	{"go.heap_peak_mb", "MiB"},
	{"host.ref_ms", "ms"},
	{"bench.trace_overhead_frac", "ratio"},
}

// runConfig is one invocation. The CLI fills it from flags; the tests
// shrink scale and point goldenDir at a set they generate.
type runConfig struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// work is the scratch directory for caches, journals and the trace;
	// it lies inside the checkout.
	work string
	// goldenDir and goldenScale are study-cold's golden set and the
	// scale it was generated at (testdata/golden, 0.1).
	goldenDir   string
	goldenScale float64
	// scale is the cell scale of rerun-warm and fleet-rehome.
	scale float64
	// setups is how many times set-up runs; setup_s is their median.
	setups int
	// minSamples is the fewest latency samples a timed phase collects,
	// however long that takes: p90 needs ten samples beyond it.
	minSamples int
	// mutate, when set, rewrites each live artifact's bytes before they
	// are verified (tests flip a byte to prove ok_frac notices).
	mutate func(name string, b []byte) []byte
}

// simSeed is the simulation seed of every non-golden cell: derived from
// the workload seed and never 1, the golden seed.
func (c runConfig) simSeed() uint64 { return 1000 + c.seed }

// order returns names in the request order the workload seed sets.
func (c runConfig) order(r *rand.Rand, names []string) []string {
	out := append([]string(nil), names...)
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// outcome is what a workload measured, before it becomes metrics.
type outcome struct {
	attempted, failed int
	ok, checked       int
	setupS            []float64
	latNs             []float64
	cells             int
	wall              time.Duration
	lmbenchErrPct     float64
	// rssPeakMiB is the peak resident set of the timed phase, which
	// starts after set-up memory is returned to the OS.
	rssPeakMiB float64
	// golden and seeded are the simulated-statistics ledgers of one pass:
	// the golden-seed cells (identical on every run) and the cells at the
	// workload's simSeed (identical on every run with that seed).
	golden, seeded ledger
	layer          map[string]float64
	// rec holds the traced run's spans.
	rec *recorder
	// hostRefMs is the reference kernel's burst time at the start and
	// end of the run.
	hostRefMs [2]float64
}

func (o *outcome) correct() bool {
	return o.attempted > 0 && o.failed == 0 && o.checked > 0 && o.ok == o.checked
}

// endToEnd reduces the outcome to the end-to-end metrics.
func (o *outcome) endToEnd() map[string]float64 {
	return map[string]float64{
		"setup_s":         median(o.setupS),
		"cells_per_s":     ratio(float64(o.cells), o.wall.Seconds()),
		"latency_p50_ms":  quantile(o.latNs, 0.5) / 1e6,
		"latency_p90_ms":  quantile(o.latNs, 0.9) / 1e6,
		"ok_frac":         ratio(float64(o.ok), float64(o.checked)),
		"rss_peak_mb":     o.rssPeakMiB,
		"lmbench_err_pct": o.lmbenchErrPct,
	}
}

// measureLMbench runs the Section-3 calibration on a fresh Paxville
// machine and returns it with its mean absolute error against the
// paper's targets, in percent.
func measureLMbench(ctx context.Context, rec *recorder) (lmbench.Result, float64, error) {
	_, end := rec.start(ctx, "lmbench.measure")
	defer end()
	m, err := machine.New(machine.PaxvilleSMP())
	if err != nil {
		return lmbench.Result{}, 0, err
	}
	r, err := lmbench.Measure(m)
	if err != nil {
		return r, 0, err
	}
	sim := map[string]float64{}
	for _, mt := range r.Artifact(lmbench.GoldenName, golden.Exact()).Metrics {
		sim[mt.ID] = mt.Value
	}
	targets := lmbench.PaperTargets().Metrics
	var sum float64
	for _, t := range targets {
		v, ok := sim[t.ID]
		if !ok {
			return r, 0, fmt.Errorf("lmbench: no simulated value for paper target %s", t.ID)
		}
		sum += math.Abs(v-t.Value) / t.Value
	}
	return r, 100 * sum / float64(len(targets)), nil
}

// runStudies runs the named studies in order under opt and returns their
// artifacts and the wall time of each study.
func runStudies(ctx context.Context, rec *recorder, names []string, opt core.Options) ([]*golden.Artifact, map[string]time.Duration, error) {
	var arts []*golden.Artifact
	walls := map[string]time.Duration{}
	for _, name := range names {
		st, err := core.NewStudy(name)
		if err != nil {
			return nil, nil, err
		}
		sctx, end := rec.start(ctx, "core.study")
		t := time.Now()
		err = st.Run(sctx, opt)
		walls[name] = time.Since(t)
		end()
		if err != nil {
			return nil, nil, fmt.Errorf("%s study: %w", name, err)
		}
		_, end = rec.start(ctx, "core.artifacts")
		as, err := st.Artifacts()
		end()
		if err != nil {
			return nil, nil, fmt.Errorf("%s artifacts: %w", name, err)
		}
		arts = append(arts, as...)
	}
	return arts, walls, nil
}

// reference is the expected output of the warm workloads: the canonical
// artifacts of an in-process cold run, by name, and the artifact names
// each study produces.
type reference struct {
	art     map[string]*golden.Artifact
	bytes   map[string][]byte
	byStudy map[string][]string
	ledger  ledger
}

// newReference runs the three studies cold in-process under opt and
// keeps their artifacts. opt.Backend (which must be set) is wrapped to
// count the simulated statistics of every cell.
func newReference(ctx context.Context, rec *recorder, opt core.Options) (*reference, error) {
	counting := &countingBackend{inner: opt.Backend}
	opt.Backend = counting
	ref := &reference{art: map[string]*golden.Artifact{}, bytes: map[string][]byte{}, byStudy: map[string][]string{}}
	for _, name := range core.StudyNames() {
		arts, _, err := runStudies(ctx, rec, []string{name}, opt)
		if err != nil {
			return nil, err
		}
		for _, a := range arts {
			b, err := a.MarshalCanonical()
			if err != nil {
				return nil, err
			}
			ref.art[a.Name] = a
			ref.bytes[a.Name] = b
			ref.byStudy[name] = append(ref.byStudy[name], a.Name)
		}
	}
	ref.ledger = counting.ledger()
	return ref, nil
}

// sameBytes reports whether one live artifact's canonical bytes are
// byte-identical to the reference's.
func (ref *reference) sameBytes(cfg runConfig, name string, b []byte) bool {
	if cfg.mutate != nil {
		b = cfg.mutate(name, append([]byte(nil), b...))
	}
	want, ok := ref.bytes[name]
	return ok && bytes.Equal(b, want)
}

// checkGolden compares each live artifact with the stored artifact of
// the same name under golden.Compare's tolerance bands and reports, by
// name, which passed. A live artifact with no stored counterpart fails;
// a stored one no live study produces is not checked.
func checkGolden(ctx context.Context, rec *recorder, stored map[string]*golden.Artifact, live []*golden.Artifact) (map[string]bool, error) {
	_, end := rec.start(ctx, "golden.compare")
	defer end()
	pass := map[string]bool{}
	for _, a := range live {
		pass[a.Name] = false
		g, found := stored[a.Name]
		if !found {
			continue
		}
		rep, err := golden.Compare(g, a)
		if err != nil {
			return nil, err
		}
		pass[a.Name] = rep.OK()
	}
	return pass, nil
}

// obsDelta accumulates the change in the program's process-wide obs
// counters and histograms over the spans of time between begin and end.
type obsDelta struct {
	base     obs.Snapshot
	counters map[string]float64
	count    map[string]float64
	sum      map[string]float64
}

func newObsDelta() *obsDelta {
	return &obsDelta{counters: map[string]float64{}, count: map[string]float64{}, sum: map[string]float64{}}
}

func (d *obsDelta) begin() { d.base = obs.Default.Snapshot() }

func (d *obsDelta) end() {
	now := obs.Default.Snapshot()
	for k, v := range now.Counters {
		d.counters[k] += float64(v - d.base.Counters[k])
	}
	for k, h := range now.Histograms {
		d.count[k] += float64(h.Count - d.base.Histograms[k].Count)
		d.sum[k] += float64(h.Sum - d.base.Histograms[k].Sum)
	}
}

// mean returns the mean observation of histogram name over the deltas.
func (d *obsDelta) mean(name string) float64 { return ratio(d.sum[name], d.count[name]) }

// engineLayers reduces the engine decorator's statistics and the probes
// to the machine.* per-layer metrics.
func engineLayers(layer map[string]float64, eng *engineBackend, p probeResult, pool *obsDelta) {
	t := eng.total()
	perCycle := func(st engineStats) float64 { return ratio(float64(st.ns), float64(st.SimCycles)) }
	layer["machine.host_ns_per_sim_cycle"] = perCycle(t)
	for _, c := range engineClasses {
		layer["machine.host_ns_per_sim_cycle."+c] = perCycle(eng.class(c))
	}
	layer["machine.sim_mcycles_per_s"] = ratio(float64(t.SimCycles), float64(t.ns)/1e9) / 1e6
	builds, reuses := pool.counters[obs.MetricMachinePoolBuilds], pool.counters[obs.MetricMachinePoolReuses]
	layer["machine.pool_reuse_frac"] = ratio(reuses, builds+reuses)
	layer["machine.explained_frac"] = ratio(p.explainedNs(&t.Counters, core.DefaultOptions().WarmupFrac), float64(t.ns))
}

// commonLayers fills the per-layer metrics every workload reports the
// same way: the probes, the simulated-count ledger, the runcache and
// journal series, the runtime, LMbench and the host reference.
func commonLayers(o *outcome, p probeResult, l ledger, passes float64, d *obsDelta, rt runtimeStats, heapPeakMiB float64) {
	layer := o.layer
	layer["trace.next_ns"] = p.traceNext
	layer["cache.lookup_ns"] = p.cacheLookup
	layer["cache.fill_ns"] = p.cacheFill
	layer["tlb.access_ns"] = p.tlbAccess
	layer["branch.resolve_ns"] = p.branchResolve
	layer["prefetch.on_miss_ns"] = p.prefetchOnMiss
	layer["bus.issue_ns"] = p.busIssue
	for k, v := range l.metrics() {
		layer[k] = v
	}
	layer["runcache.key_hash_ns"] = p.keyHash
	layer["runcache.lookup_ns"] = d.mean(obs.MetricRuncacheLookupNs)
	lookups := d.counters[obs.MetricRuncacheMemHits] + d.counters[obs.MetricRuncacheDiskHits] + d.counters[obs.MetricRuncacheMisses]
	layer["runcache.disk_hit_frac"] = ratio(d.counters[obs.MetricRuncacheDiskHits], lookups)
	layer["runcache.mem_hit_frac"] = ratio(d.counters[obs.MetricRuncacheMemHits], lookups)
	layer["journal.appends"] = ratio(d.counters[obs.MetricJournalAppends], passes)
	layer["journal.append_ns"] = d.mean(obs.MetricJournalAppendNs)
	layer["core.flight_shared"] = ratio(d.counters[obs.MetricCoreFlightShared], passes)
	layer["go.gc_cpu_frac"] = ratio(rt.gcCPU, rt.totalCPU)
	layer["go.heap_peak_mb"] = heapPeakMiB
	lm := o.rec.layers("")["lmbench.measure"]
	layer["lmbench.measure_ms"] = ratio(float64(lm.totalNs)/1e6, float64(lm.count))
	layer["host.ref_ms"] = (o.hostRefMs[0] + o.hostRefMs[1]) / 2
}

// passStats is one timed pass of a warm workload.
type passStats struct {
	cells, attempted, failed, ok, checked int
	wall                                  time.Duration
	latNs                                 []float64
}

// timedPhase is what the shared timed loop measured. traced and
// untraced split cells and wall time between the pass kinds of a traced
// run; in an untraced run every pass counts as untraced.
type timedPhase struct {
	passes           int
	traced, untraced passStats
	delta            *obsDelta // obs series over the traced passes
	untracedRT       runtimeStats
	heapPeakMiB      float64
}

// runPasses is the timed phase of the warm workloads: it runs pass until
// the phase has lasted cfg.seconds and collected cfg.minSamples latency
// samples, and at least two passes, folding each pass into o. A traced
// run alternates traced and untraced passes, so host drift cannot
// masquerade as tracing overhead; pass gets the recorder on traced
// passes and nil otherwise.
func runPasses(cfg runConfig, rec *recorder, o *outcome, pass func(rec *recorder) (passStats, error)) (*timedPhase, error) {
	ph := &timedPhase{delta: newObsDelta()}
	settle()
	mem := watchMemory()
	start := time.Now()
	for ph.passes < 2 || len(o.latNs) < cfg.minSamples || time.Since(start).Seconds() < cfg.seconds {
		tracedPass := cfg.trace && ph.passes%2 == 0
		var prec *recorder
		var u0 runtimeStats
		if tracedPass {
			prec = rec
			rec.setPhase("timed")
			ph.delta.begin()
		} else {
			rec.pause()
			u0 = readRuntime()
		}
		p, err := pass(prec)
		if err != nil {
			mem.done()
			return nil, err
		}
		kind := &ph.untraced
		if tracedPass {
			ph.delta.end()
			kind = &ph.traced
		} else {
			ph.untracedRT = ph.untracedRT.add(readRuntime().sub(u0))
		}
		kind.cells += p.cells
		kind.wall += p.wall
		ph.passes++
		o.attempted += p.attempted
		o.failed += p.failed
		o.ok += p.ok
		o.checked += p.checked
		o.cells += p.cells
		o.wall += p.wall
		o.latNs = append(o.latNs, p.latNs...)
	}
	rec.pause()
	o.hostRefMs[1] = hostRefMs()
	ph.heapPeakMiB, o.rssPeakMiB = mem.done()
	return ph, nil
}

// tracedPasses is how many of the phase's passes were traced.
func (ph *timedPhase) tracedPasses() float64 { return float64((ph.passes + 1) / 2) }

// overhead is 1 - traced ÷ untraced cells_per_s.
func (ph *timedPhase) overhead() float64 {
	return 1 - ratio(float64(ph.traced.cells)/ph.traced.wall.Seconds(), float64(ph.untraced.cells)/ph.untraced.wall.Seconds())
}

// allocLayers fills the allocation metrics from an untraced stretch.
func allocLayers(layer map[string]float64, rt runtimeStats, cells int) {
	layer["core.allocs_per_cell"] = ratio(float64(rt.mallocs), float64(cells))
	layer["core.alloc_kb_per_cell"] = ratio(float64(rt.allocBytes)/1024, float64(cells))
}

// metrics renders the ledger as the simulated-count per-layer metrics.
func (l ledger) metrics() map[string]float64 {
	c := &l.Counters
	g := func(e counters.Event) float64 { return float64(c.Get(e)) }
	return map[string]float64{
		"machine.sim_cycles":   float64(l.SimCycles),
		"cpu.instructions":     g(counters.Instructions),
		"cpu.stall_cycles":     g(counters.StallCycles),
		"cache.l1d_miss":       g(counters.L1DMiss),
		"cache.l2_miss":        g(counters.L2Miss),
		"cache.tc_miss":        g(counters.TCMiss),
		"tlb.itlb_miss":        g(counters.ITLBMiss),
		"tlb.dtlb_miss":        g(counters.DTLBMiss),
		"branch.mispredicted":  g(counters.BranchMispredicted),
		"bus.transactions":     float64(counters.BusTransactions(c)),
		"prefetch.issued":      g(counters.PrefetchIssued),
		"prefetch.useful_frac": ratio(g(counters.PrefetchUseful), g(counters.PrefetchIssued)),
	}
}
