package core

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"xeonomp/internal/config"
	"xeonomp/internal/profiles"
)

// countingBackend delegates to Local and counts executions — the probe
// for how many cells actually reached the inner backend — in total and
// per "workload|config" name, which is unique within a study's cells.
type countingBackend struct {
	calls atomic.Int64
	// hold, when non-nil, blocks every execution until it is closed, so
	// tests can pile up concurrent identical requests deterministically.
	hold chan struct{}

	mu    sync.Mutex
	cells map[string]int
}

func (b *countingBackend) RunCell(ctx context.Context, w Workload, cfg config.Configuration, opt Options) (*RunResult, bool, error) {
	b.calls.Add(1)
	b.mu.Lock()
	if b.cells == nil {
		b.cells = map[string]int{}
	}
	b.cells[w.Name()+"|"+cfg.Name]++
	b.mu.Unlock()
	if b.hold != nil {
		select {
		case <-b.hold:
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
	}
	return Local().RunCell(ctx, w, cfg, opt)
}

func TestBackendDefaultMatchesExplicitLocal(t *testing.T) {
	cg, _ := profiles.ByName("CG")
	cfg, _ := config.ByArch(config.CMPSMP)
	opt := quickOptions()

	base, err := RunSingle(cg, cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Backend = Local()
	viaLocal, err := RunSingle(cg, cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Backend = NewDedupe(NewGate(Local(), 2))
	viaStack, err := RunSingle(cg, cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base, viaLocal) || !reflect.DeepEqual(base, viaStack) {
		t.Error("results differ across backends; the backend seam must not affect results")
	}
}

func TestDedupeSharesInflightCell(t *testing.T) {
	cg, _ := profiles.ByName("CG")
	cfg, _ := config.ByArch(config.CMPSMP)

	const waiters = 4
	inner := &countingBackend{hold: make(chan struct{})}
	d := NewDedupe(inner)
	opt := quickOptions()
	opt.Backend = d

	var (
		wg      sync.WaitGroup
		cachedN atomic.Int64
		started = make(chan struct{}, waiters)
	)
	results := make([]*RunResult, waiters)
	errs := make([]error, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			started <- struct{}{}
			res, cached, err := d.RunCell(context.Background(), Single(cg), cfg, opt)
			if cached {
				cachedN.Add(1)
			}
			results[i], errs[i] = res, err
		}(i)
	}
	for i := 0; i < waiters; i++ {
		<-started
	}
	// All goroutines are past the starting line; let the leader (and any
	// stragglers not yet at RunCell) through. Followers joining after the
	// leader finishes would compute their own cell — that is correct
	// dedupe behaviour, so the assertion below allows >1 but the release
	// ordering makes 1 overwhelmingly likely and the shared-result checks
	// hold regardless.
	close(inner.hold)
	wg.Wait()

	for i := range errs {
		if errs[i] != nil {
			t.Fatalf("waiter %d: %v", i, errs[i])
		}
		if results[i] == nil {
			t.Fatalf("waiter %d: nil result", i)
		}
	}
	if got := inner.calls.Load(); got >= waiters {
		t.Errorf("inner backend executed %d times for %d identical requests; dedupe shared nothing", got, waiters)
	}
	if cachedN.Load() == 0 {
		t.Error("no waiter reported cached=true; followers must report shared service")
	}
	want := results[0]
	for i, r := range results[1:] {
		if !reflect.DeepEqual(want, r) {
			t.Errorf("waiter %d result differs from leader's", i+1)
		}
	}
}

func TestDedupeDistinctCellsRunIndependently(t *testing.T) {
	cg, _ := profiles.ByName("CG")
	ft, _ := profiles.ByName("FT")
	cfg, _ := config.ByArch(config.CMPSMP)

	inner := &countingBackend{}
	d := NewDedupe(inner)
	opt := quickOptions()
	opt.Backend = d
	for _, w := range []Workload{Single(cg), Single(ft)} {
		if _, cached, err := d.RunCell(context.Background(), w, cfg, opt); err != nil {
			t.Fatal(err)
		} else if cached {
			t.Errorf("%s reported cached on first execution", w.Name())
		}
	}
	if got := inner.calls.Load(); got != 2 {
		t.Errorf("distinct cells executed %d times, want 2", got)
	}
}

func TestDedupeCanceledWaiterLeavesLeaderRunning(t *testing.T) {
	cg, _ := profiles.ByName("CG")
	cfg, _ := config.ByArch(config.CMPSMP)

	inner := &countingBackend{hold: make(chan struct{})}
	d := NewDedupe(inner)
	opt := quickOptions()
	opt.Backend = d

	leaderDone := make(chan error, 1)
	go func() {
		_, _, err := d.RunCell(context.Background(), Single(cg), cfg, opt)
		leaderDone <- err
	}()
	// Wait until the leader has registered its flight.
	for {
		d.mu.Lock()
		n := len(d.inflight)
		d.mu.Unlock()
		if n == 1 {
			break
		}
		runtime.Gosched()
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := d.RunCell(ctx, Single(cg), cfg, opt); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled waiter returned %v, want context.Canceled", err)
	}
	close(inner.hold)
	if err := <-leaderDone; err != nil {
		t.Errorf("leader failed after waiter cancellation: %v", err)
	}
}

func TestGateBoundsConcurrency(t *testing.T) {
	cg, _ := profiles.ByName("CG")
	ft, _ := profiles.ByName("FT")
	bt, _ := profiles.ByName("BT")
	cfg, _ := config.ByArch(config.CMPSMP)

	var inFlight, peak atomic.Int64
	inner := &gaugeBackend{inFlight: &inFlight, peak: &peak}
	g := NewGate(inner, 1)
	opt := quickOptions()
	opt.Backend = g

	var wg sync.WaitGroup
	for _, p := range []profiles.Profile{cg, ft, bt} {
		wg.Add(1)
		go func(p profiles.Profile) {
			defer wg.Done()
			if _, _, err := g.RunCell(context.Background(), Single(p), cfg, opt); err != nil {
				t.Error(err)
			}
		}(p)
	}
	wg.Wait()
	if got := peak.Load(); got != 1 {
		t.Errorf("peak concurrency %d through a 1-slot gate", got)
	}
}

func TestGateCanceledWaiterLeavesQueue(t *testing.T) {
	cg, _ := profiles.ByName("CG")
	cfg, _ := config.ByArch(config.CMPSMP)

	inner := &countingBackend{hold: make(chan struct{})}
	g := NewGate(inner, 1)
	opt := quickOptions()
	opt.Backend = g

	holderDone := make(chan struct{})
	go func() {
		defer close(holderDone)
		// Holds the only slot until hold closes.
		if _, _, err := g.RunCell(context.Background(), Single(cg), cfg, opt); err != nil {
			t.Error(err)
		}
	}()
	// Wait for the holder to occupy the slot.
	for len(g.sem) == 0 {
		runtime.Gosched()
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := g.RunCell(ctx, Single(cg), cfg, opt); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled queuer returned %v, want context.Canceled", err)
	}
	close(inner.hold)
	<-holderDone
}

// gaugeBackend tracks concurrent executions for the gate test.
type gaugeBackend struct {
	inFlight, peak *atomic.Int64
}

func (b *gaugeBackend) RunCell(ctx context.Context, w Workload, cfg config.Configuration, opt Options) (*RunResult, bool, error) {
	n := b.inFlight.Add(1)
	for {
		p := b.peak.Load()
		if n <= p || b.peak.CompareAndSwap(p, n) {
			break
		}
	}
	defer b.inFlight.Add(-1)
	return Local().RunCell(ctx, w, cfg, opt)
}
