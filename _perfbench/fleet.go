package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"xeonomp/internal/api"
	"xeonomp/internal/core"
	"xeonomp/internal/obs"
	"xeonomp/internal/runcache"
	"xeonomp/internal/server"
	"xeonomp/internal/shard"
)

// fleet-rehome is the `xeond -shard` topology in one process on
// loopback TCP: two worker servers hold the same 227 cells in memory;
// every pass builds a fresh frontend — server.New over
// core.Cached(shard.New(...)) with a journal directory, as after a
// restart — and two api.Client callers submit the three studies and
// fetch every artifact. Every cell crosses the client, the frontend
// server, the frontend's cache and journal writes, the shard hop, the
// worker server and the worker's memory-cache read.

// serve runs s on a fresh loopback listener and returns its base URL and
// a stop func that closes the listener and connections, waits for the
// serve loop to end, and closes s. With rec set, every request is a
// "server.request" span, parent of the spans its backend records.
func serve(s *server.Server, rec *recorder) (string, func() error, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	h := s.Handler()
	if rec != nil {
		inner := h
		h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			ctx, end := rec.start(r.Context(), "server.request")
			defer end()
			inner.ServeHTTP(w, r.WithContext(ctx))
		})
	}
	hs := &http.Server{Handler: h}
	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()
	stop := func() error {
		cerr := hs.Close()
		serr := <-done
		if errors.Is(serr, http.ErrServerClosed) {
			serr = nil
		}
		return errors.Join(cerr, serr, s.Close())
	}
	return "http://" + ln.Addr().String(), stop, nil
}

// fleet is the two long-lived workers.
type fleet struct {
	urls  []string
	stops []func() error
}

func (f *fleet) close() error {
	var errs []error
	for _, stop := range f.stops {
		errs = append(errs, stop())
	}
	f.stops = nil
	return errors.Join(errs...)
}

// bootFleet builds both workers' memory caches from the reference
// cache and starts them. With rec set, each worker's Config.Backend is
// wrapped in a "server.worker_backend" span.
func bootFleet(ctx context.Context, cfg runConfig, rec *recorder, from *runcache.Cache) (*fleet, error) {
	f := &fleet{}
	for i := 0; i < 2; i++ {
		c, err := runcache.New(0, "")
		if err != nil {
			return nil, err
		}
		opt, err := core.NewOptions(core.WithScale(cfg.scale), core.WithSeed(cfg.simSeed()), core.WithWorkers(2),
			core.WithCache(c), core.WithBackend(core.Cached(copyBackend{from: from})))
		if err != nil {
			return nil, err
		}
		if _, _, err := runStudies(ctx, nil, core.StudyNames(), opt); err != nil {
			return nil, err
		}
		var b core.Backend
		if rec != nil {
			b = spanBackend{rec: rec, name: "server.worker_backend", inner: core.Local()}
		}
		u, stop, err := serve(server.New(server.Config{Backend: b, Cache: c, Workers: 2}), rec)
		if err != nil {
			return nil, errors.Join(err, f.close())
		}
		f.urls = append(f.urls, u)
		f.stops = append(f.stops, stop)
	}
	return f, nil
}

// fleetPass is the outcome of one pass.
type fleetPass struct {
	latNs                      []float64
	cells, ok, checked, failed int
	studies                    int
	wall                       time.Duration
	firstErr                   error
}

// runFleetPass builds a fresh frontend over the fleet, runs the studies
// in order from two closed-loop callers, and closes the frontend.
func runFleetPass(ctx context.Context, cfg runConfig, rec *recorder, f *fleet, ref *reference, order []string, hc *http.Client, journalDir string) (*fleetPass, error) {
	if err := os.MkdirAll(journalDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(journalDir)
	p := &fleetPass{}
	t := time.Now()
	var remotes []*shard.Remote
	for _, u := range f.urls {
		remotes = append(remotes, shard.NewRemote(api.NewClient(u)))
	}
	sh, err := shard.New(remotes)
	if err != nil {
		return nil, err
	}
	var b core.Backend = core.Cached(sh)
	if rec != nil {
		b = spanBackend{rec: rec, name: "server.frontend_backend",
			inner: core.Cached(spanBackend{rec: rec, name: "shard.hop", inner: sh})}
	}
	cache, err := runcache.New(0, "")
	if err != nil {
		return nil, err
	}
	u, stop, err := serve(server.New(server.Config{Backend: b, Cache: cache, JournalDir: journalDir, Workers: 2}), nil)
	if err != nil {
		return nil, err
	}
	client := api.NewClient(u, api.WithHTTPClient(hc))
	queue := make(chan string, len(order))
	for _, name := range order {
		queue <- name
	}
	close(queue)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for name := range queue {
				st := time.Now()
				cells, ok, checked, err := fleetStudy(ctx, cfg, rec, client, ref, name)
				lat := time.Since(st)
				mu.Lock()
				p.studies++
				p.cells += cells
				p.ok += ok
				p.checked += checked
				p.latNs = append(p.latNs, float64(lat))
				if err != nil {
					p.failed++
					if p.firstErr == nil {
						p.firstErr = fmt.Errorf("%s study: %w", name, err)
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	err = stop()
	hc.CloseIdleConnections()
	p.wall = time.Since(t)
	return p, err
}

// fleetStudy submits one study, follows it to its end, and fetches and
// verifies every artifact it produces. Every artifact the study should
// produce counts as checked, so a study that fails before its artifacts
// are verified lowers ok_frac.
func fleetStudy(ctx context.Context, cfg runConfig, rec *recorder, c *api.Client, ref *reference, name string) (cells, ok, checked int, err error) {
	checked = len(ref.byStudy[name])
	_, end := rec.start(ctx, "api.submit")
	st, err := c.SubmitStudy(ctx, api.StudyRequest{Study: name, Scale: cfg.scale, Seed: cfg.simSeed()})
	end()
	if err != nil {
		return 0, 0, checked, err
	}
	_, end = rec.start(ctx, "api.follow")
	ev, err := c.Follow(ctx, st.ID, nil)
	end()
	if err != nil {
		return 0, 0, checked, err
	}
	if ev.State != api.StateDone {
		return 0, 0, checked, fmt.Errorf("job %s ended %s: %s", st.ID, ev.State, ev.Error)
	}
	for _, an := range ref.byStudy[name] {
		_, end = rec.start(ctx, "api.artifact")
		b, err := c.Artifact(ctx, st.ID, an)
		end()
		if err != nil {
			return st.Cells, ok, checked, err
		}
		if ref.sameBytes(cfg, an, b) {
			ok++
		}
	}
	return st.Cells, ok, checked, nil
}

func runFleetRehome(ctx context.Context, cfg runConfig) (*outcome, error) {
	o := &outcome{layer: map[string]float64{}}
	o.hostRefMs[0] = hostRefMs()
	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
	}
	o.rec = rec
	eng := newEngineBackend(rec)
	hc := &http.Client{Transport: http.DefaultTransport.(*http.Transport).Clone()}
	r := rand.New(rand.NewPCG(cfg.seed, 0xf1ee7))
	setupDelta := newObsDelta()
	setupDelta.begin()

	var ref *reference
	var f *fleet
	defer func() {
		if f != nil {
			_ = f.close() // error paths only; the success path checks it below
		}
	}()
	journals := 0
	journalDir := func() string {
		journals++
		return filepath.Join(cfg.work, fmt.Sprintf("fleet-journal-%d", journals))
	}
	for i := 0; i < cfg.setups; i++ {
		t := time.Now()
		if f != nil {
			if err := f.close(); err != nil {
				return nil, err
			}
			f = nil
		}
		from, err := runcache.New(0, "")
		if err != nil {
			return nil, err
		}
		var fill core.Backend = core.Local()
		if rec != nil {
			fill = spanBackend{rec: rec, name: "core.cached", inner: core.Cached(eng)}
		}
		opt, err := core.NewOptions(core.WithScale(cfg.scale), core.WithSeed(cfg.simSeed()), core.WithWorkers(2),
			core.WithCache(from), core.WithBackend(fill))
		if err != nil {
			return nil, err
		}
		if ref, err = newReference(ctx, rec, opt); err != nil {
			return nil, err
		}
		if f, err = bootFleet(ctx, cfg, rec, from); err != nil {
			return nil, err
		}
		// Warm-up: one verified pass primes connections and code paths.
		warm := cfg
		warm.mutate = nil
		p, err := runFleetPass(ctx, warm, nil, f, ref, core.StudyNames(), hc, journalDir())
		if err != nil {
			return nil, err
		}
		if p.firstErr != nil || p.ok != p.checked {
			return nil, fmt.Errorf("fleet warm-up pass failed (%d of %d artifacts identical): %v", p.ok, p.checked, p.firstErr)
		}
		o.setupS = append(o.setupS, time.Since(t).Seconds())
	}
	setupDelta.end()
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

	ph, err := runPasses(cfg, rec, o, func(prec *recorder) (passStats, error) {
		p, err := runFleetPass(ctx, cfg, prec, f, ref, cfg.order(r, core.StudyNames()), hc, journalDir())
		if err != nil {
			return passStats{}, err
		}
		if p.firstErr != nil {
			fmt.Fprintf(os.Stderr, "perfbench: fleet-rehome: %v\n", p.firstErr)
		}
		return passStats{cells: p.cells, attempted: p.studies, failed: p.failed, ok: p.ok, checked: p.checked, wall: p.wall, latNs: p.latNs}, nil
	})
	if err != nil {
		return nil, err
	}
	if err := f.close(); err != nil {
		return nil, err
	}
	f = nil
	if !cfg.trace {
		return o, nil
	}

	tracedPasses := ph.tracedPasses()
	delta := ph.delta
	commonLayers(o, probes, ref.ledger, tracedPasses, delta, ph.untracedRT, ph.heapPeakMiB)
	engineLayers(o.layer, eng, probes, setupDelta)
	allocLayers(o.layer, ph.untracedRT, ph.untraced.cells)
	timed := rec.layers("timed")
	perCall := func(name string) float64 { return ratio(float64(timed[name].totalNs), float64(timed[name].count)) }
	front, hop, worker := timed["server.frontend_backend"], timed["shard.hop"], timed["server.worker_backend"]
	o.layer["api.submit_ms"] = perCall("api.submit") / 1e6
	o.layer["api.follow_ms"] = perCall("api.follow") / 1e6
	o.layer["api.artifact_ms"] = perCall("api.artifact") / 1e6
	o.layer["server.frontend_backend_ns_per_cell"] = perCall("server.frontend_backend")
	o.layer["server.worker_backend_ns_per_cell"] = perCall("server.worker_backend")
	o.layer["server.request_ns"] = perCall("server.request")
	o.layer["shard.hop_ns_per_cell"] = ratio(float64(hop.totalNs-worker.totalNs), float64(hop.count))
	o.layer["core.cached_tier_ns_per_cell"] = ratio(float64(front.totalNs-hop.totalNs), float64(front.count))
	o.layer["core.worker_util"] = ratio(float64(front.totalNs), 2*float64(ph.traced.wall))
	sent0 := delta.counters[obs.MetricShardCellsSent+".0"] / tracedPasses
	sent1 := delta.counters[obs.MetricShardCellsSent+".1"] / tracedPasses
	o.layer["shard.cells_sent"] = delta.counters[obs.MetricShardCellsSent] / tracedPasses
	o.layer["shard.cells_sent.0"] = sent0
	o.layer["shard.cells_sent.1"] = sent1
	o.layer["shard.balance"] = ratio(max(sent0, sent1), min(sent0, sent1))
	o.layer["shard.retries"] = delta.counters[obs.MetricShardRetries] / tracedPasses
	o.layer["shard.failovers"] = delta.counters[obs.MetricShardFailovers] / tracedPasses
	o.layer["bench.trace_overhead_frac"] = ph.overhead()
	return o, nil
}
