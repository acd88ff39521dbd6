package shard_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"xeonomp/internal/api"
	"xeonomp/internal/config"
	"xeonomp/internal/core"
	"xeonomp/internal/obs"
	"xeonomp/internal/profiles"
	"xeonomp/internal/runcache"
	"xeonomp/internal/server"
	"xeonomp/internal/shard"
)

// workerHandler fronts a real experiment-server handler, counting cell
// requests and — when dieAfter > 0 — aborting every cell connection
// after that many, which the client sees as a mid-study worker death.
type workerHandler struct {
	inner    http.Handler
	cells    atomic.Int64
	dieAfter int64
}

func (h *workerHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/api/v1/cell" {
		n := h.cells.Add(1)
		if h.dieAfter > 0 && n > h.dieAfter {
			panic(http.ErrAbortHandler) // dead worker: connection reset, no response
		}
	}
	h.inner.ServeHTTP(w, r)
}

// newWorker boots one in-process xeond worker and returns its counting
// handler and Remote.
func newWorker(t *testing.T, dieAfter int64) (*workerHandler, *shard.Remote) {
	t.Helper()
	s := server.New(server.Config{})
	h := &workerHandler{inner: s.Handler(), dieAfter: dieAfter}
	ts := httptest.NewServer(h)
	t.Cleanup(func() {
		ts.Close()
		if err := s.Close(); err != nil {
			t.Errorf("closing worker: %v", err)
		}
	})
	return h, shard.NewRemote(api.NewClient(ts.URL))
}

func testCell(t *testing.T) (core.Workload, config.Configuration, core.Options) {
	t.Helper()
	prof, err := profiles.ByName("CG")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := config.ByArch(config.Serial)
	if err != nil {
		t.Fatal(err)
	}
	opt := core.DefaultOptions()
	opt.Scale = 0.02
	return core.Single(prof), cfg, opt
}

// TestRemoteMatchesLocal runs one cell both ways and requires identical
// results — the contract that lets a shard fleet serve golden artifacts.
func TestRemoteMatchesLocal(t *testing.T) {
	_, remote := newWorker(t, 0)
	w, cfg, opt := testCell(t)
	ctx := context.Background()

	local, _, err := core.Local().RunCell(ctx, w, cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	got, cached, err := remote.RunCell(ctx, w, cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Error("fresh worker reported the cell cached")
	}
	if got.WallCycles != local.WallCycles || len(got.Programs) != len(local.Programs) {
		t.Fatalf("remote cell differs: wall %d vs %d", got.WallCycles, local.WallCycles)
	}
	for i := range got.Programs {
		g, l := &got.Programs[i], &local.Programs[i]
		if g.Benchmark != l.Benchmark || g.Cycles != l.Cycles || g.Threads != l.Threads ||
			g.Counters != l.Counters || g.Metrics != l.Metrics {
			t.Errorf("program %s differs across the wire", l.Benchmark)
		}
	}
}

func TestRemoteRejectsInexpressibleOptions(t *testing.T) {
	_, remote := newWorker(t, 0)
	w, cfg, opt := testCell(t)
	opt.SampleInterval = 1000
	if _, _, err := remote.RunCell(context.Background(), w, cfg, opt); err == nil ||
		!strings.Contains(err.Error(), "not expressible") {
		t.Errorf("sampler options crossed the wire silently: %v", err)
	}
	opt = core.DefaultOptions()
	opt.Scale = 0.02
	opt.CycleLimit = 1 << 40
	if _, _, err := remote.RunCell(context.Background(), w, cfg, opt); err == nil {
		t.Error("cycle limit crossed the wire silently")
	}
}

// TestRemoteRetriesOverBudget pins the 429 path: a worker that rejects
// the first attempts is retried with backoff until it admits the cell.
func TestRemoteRetriesOverBudget(t *testing.T) {
	s := server.New(server.Config{})
	defer func() {
		if err := s.Close(); err != nil {
			t.Errorf("closing worker: %v", err)
		}
	}()
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/api/v1/cell" && calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusTooManyRequests)
			// Test fixture; a failed encode fails the retry assertions.
			_ = json.NewEncoder(w).Encode(api.ErrorResponse{Error: "busy", Code: api.CodeOverBudget})
			return
		}
		s.Handler().ServeHTTP(w, r)
	}))
	defer ts.Close()

	retriesBefore := obs.NewCounter(obs.MetricShardRetries).Value()
	remote := shard.NewRemote(api.NewClient(ts.URL))
	w, cfg, opt := testCell(t)
	if _, _, err := remote.RunCell(context.Background(), w, cfg, opt); err != nil {
		t.Fatalf("cell never admitted: %v", err)
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("worker saw %d attempts, want 3 (two rejections, one success)", got)
	}
	if d := obs.NewCounter(obs.MetricShardRetries).Value() - retriesBefore; d != 2 {
		t.Errorf("shard.retries moved by %d, want 2", d)
	}
}

// runStudy runs the single study over the given backend and returns its
// canonical artifact bytes by name.
func runStudy(t *testing.T, backend core.Backend, scale float64) map[string][]byte {
	t.Helper()
	study := core.NewSingleStudy()
	opt := core.DefaultOptions()
	opt.Scale = scale
	opt.Workers = 4
	opt.Backend = backend
	if err := study.Run(context.Background(), opt); err != nil {
		t.Fatal(err)
	}
	arts, err := study.Artifacts()
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, a := range arts {
		b, err := a.MarshalCanonical()
		if err != nil {
			t.Fatal(err)
		}
		out[a.Name] = b
	}
	return out
}

// TestShardSpreadsAndMatchesLocal runs the single study over two healthy
// workers: both must receive cells (affinity partitions, it does not
// funnel), and every artifact byte must match a local run.
func TestShardSpreadsAndMatchesLocal(t *testing.T) {
	if testing.Short() {
		t.Skip("full study over HTTP")
	}
	hA, remoteA := newWorker(t, 0)
	hB, remoteB := newWorker(t, 0)
	sh, err := shard.New([]*shard.Remote{remoteA, remoteB})
	if err != nil {
		t.Fatal(err)
	}
	want := runStudy(t, nil, 0.02)
	got := runStudy(t, sh, 0.02)
	for name, wb := range want {
		if !bytes.Equal(got[name], wb) {
			t.Errorf("artifact %s differs between local and sharded runs", name)
		}
	}
	if hA.cells.Load() == 0 || hB.cells.Load() == 0 {
		t.Errorf("cell spread %d/%d: affinity must partition across both workers", hA.cells.Load(), hB.cells.Load())
	}
}

// TestShardFailover kills one worker mid-study (it aborts every cell
// connection after its third cell) and requires the study to finish on
// the survivor with results identical to a local run.
func TestShardFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("full study over HTTP")
	}
	hA, remoteA := newWorker(t, 3) // dies after 3 cells
	_, remoteB := newWorker(t, 0)
	sh, err := shard.New([]*shard.Remote{remoteA, remoteB}, shard.WithInflight(2))
	if err != nil {
		t.Fatal(err)
	}
	failoversBefore := obs.NewCounter(obs.MetricShardFailovers).Value()
	want := runStudy(t, nil, 0.02)
	got := runStudy(t, sh, 0.02)
	for name, wb := range want {
		if !bytes.Equal(got[name], wb) {
			t.Errorf("artifact %s differs after mid-study failover", name)
		}
	}
	if d := obs.NewCounter(obs.MetricShardFailovers).Value() - failoversBefore; d == 0 {
		t.Error("shard.failovers never moved while a worker was dead")
	}
	if hA.cells.Load() <= 3 {
		t.Errorf("dead worker saw only %d cells; the test never exercised its death", hA.cells.Load())
	}
}

// TestShardAllWorkersDown: every cell fails with a transport-rooted
// error once the whole fleet is unreachable — typed, not hung.
func TestShardAllWorkersDown(t *testing.T) {
	ts := httptest.NewServer(http.NotFoundHandler())
	ts.Close()
	sh, err := shard.New([]*shard.Remote{shard.NewRemote(api.NewClient(ts.URL))})
	if err != nil {
		t.Fatal(err)
	}
	w, cfg, opt := testCell(t)
	if _, _, err := sh.RunCell(context.Background(), w, cfg, opt); !errors.Is(err, api.ErrTransport) {
		t.Fatalf("error %v, want ErrTransport through the failover chain", err)
	}
}

// TestShardGoldenScale is the golden-scale equivalence gate: the single
// study executed through a sharded fleet must produce artifacts
// byte-identical to the checked-in testdata/golden files (scale 0.1,
// seed 1) — the same bytes a local `xeonchar -export-json` writes.
func TestShardGoldenScale(t *testing.T) {
	if testing.Short() {
		t.Skip("golden-scale study over HTTP")
	}
	_, remoteA := newWorker(t, 0)
	_, remoteB := newWorker(t, 0)
	sh, err := shard.New([]*shard.Remote{remoteA, remoteB})
	if err != nil {
		t.Fatal(err)
	}
	got := runStudy(t, sh, 0.1)
	for _, name := range []string{"figure2", "figure3", "table2", "single-counters"} {
		want, err := os.ReadFile(filepath.Join("..", "..", "testdata", "golden", name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got[name], want) {
			t.Errorf("artifact %s from the sharded run differs from testdata/golden", name)
		}
	}
}

// TestFleetHashesEachCellOncePerProcess pins hash-once addressing on
// the sharded path: a study submitted to an in-process frontend over one
// worker hashes each cell twice cold — once on the frontend, where
// Dedupe, the cache tier and the shard router share the address, and
// once on the worker — and once warm, when the frontend's cache serves
// every cell without a hop.
func TestFleetHashesEachCellOncePerProcess(t *testing.T) {
	_, remote := newWorker(t, 0)
	sh, err := shard.New([]*shard.Remote{remote})
	if err != nil {
		t.Fatal(err)
	}
	cache, err := runcache.New(0, "")
	if err != nil {
		t.Fatal(err)
	}
	front := server.New(server.Config{Backend: core.Cached(sh), Cache: cache, Workers: 2})
	ts := httptest.NewServer(front.Handler())
	t.Cleanup(func() {
		ts.Close()
		if err := front.Close(); err != nil {
			t.Errorf("closing frontend: %v", err)
		}
	})
	client := api.NewClient(ts.URL)
	hashes := obs.NewCounter(obs.MetricRuncacheKeyHashes)
	ctx := context.Background()
	for _, pass := range []struct {
		name    string
		perCell uint64
	}{{"cold", 2}, {"warm", 1}} {
		before := hashes.Value()
		st, err := client.SubmitStudy(ctx, api.StudyRequest{Study: "single", Scale: 0.01})
		if err != nil {
			t.Fatal(err)
		}
		end, err := client.Follow(ctx, st.ID, nil)
		if err != nil {
			t.Fatal(err)
		}
		if end.State != api.StateDone {
			t.Fatalf("%s pass: study ended %s: %s", pass.name, end.State, end.Error)
		}
		if got, want := hashes.Value()-before, pass.perCell*uint64(st.Cells); got != want {
			t.Errorf("%s pass: %d key hashes for %d cells, want %d per cell", pass.name, got, st.Cells, pass.perCell)
		}
	}
}
