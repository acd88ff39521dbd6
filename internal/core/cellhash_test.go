package core

import (
	"context"
	"math"
	"reflect"
	"sync"
	"testing"

	"xeonomp/internal/config"
	"xeonomp/internal/machine"
	"xeonomp/internal/obs"
	"xeonomp/internal/profiles"
	"xeonomp/internal/runcache"
	"xeonomp/internal/sched"
)

// keyHashes reads the process-wide count of computed cell addresses.
func keyHashes() uint64 { return obs.NewCounter(obs.MetricRuncacheKeyHashes).Value() }

// hashCells is a small mixed set of cells: one program on three
// configurations and a co-scheduled pair.
func hashCells(t *testing.T) []Cell {
	t.Helper()
	cg, err := profiles.ByName("CG")
	if err != nil {
		t.Fatal(err)
	}
	ft, err := profiles.ByName("FT")
	if err != nil {
		t.Fatal(err)
	}
	var cells []Cell
	for _, a := range []config.Arch{config.Serial, config.SMT, config.CMP} {
		cfg, err := config.ByArch(a)
		if err != nil {
			t.Fatal(err)
		}
		cells = append(cells, Cell{Workload: Single(cg), Config: cfg})
	}
	serial, err := config.ByArch(config.Serial)
	if err != nil {
		t.Fatal(err)
	}
	return append(cells, Cell{Workload: Pair(cg, ft), Config: serial})
}

// TestOneKeyHashPerLocalCell pins hash-once addressing in a local run:
// every computed or cached cell is hashed exactly once, however many
// tiers key on it — the plain local cache tier, or the server's stack
// of Dedupe, Gate and a Cached tier over the local one — and a run
// without a cache or journal hashes nothing.
func TestOneKeyHashPerLocalCell(t *testing.T) {
	cells := hashCells(t)
	for _, c := range []struct {
		name    string
		backend Backend
		cache   bool
		want    int
	}{
		{"uncached local", Local(), false, 0},
		{"local", Local(), true, 1},
		{"server stack", NewDedupe(NewGate(Cached(Local()), 2)), true, 1},
	} {
		opt := quickOptions()
		opt.Workers = 2
		opt.Backend = c.backend
		if c.cache {
			var err error
			if opt.Cache, err = runcache.New(0, ""); err != nil {
				t.Fatal(err)
			}
		}
		for _, pass := range []string{"cold", "warm"} {
			before := keyHashes()
			if _, err := RunCells(context.Background(), cells, opt); err != nil {
				t.Fatal(err)
			}
			if got, want := keyHashes()-before, uint64(c.want*len(cells)); got != want {
				t.Errorf("%s, %s pass: %d key hashes for %d cells, want %d", c.name, pass, got, len(cells), want)
			}
		}
		if s := opt.Cache.Stats(); c.cache && s.Hits() == 0 {
			t.Errorf("%s: warm pass served no cell from the cache (%+v)", c.name, s)
		}
	}
}

// forwardBackend hands its inner backend another cell than the one it
// was given, under the context it received.
type forwardBackend struct {
	inner  Backend
	modify func(*Workload, *Options)
}

func (b forwardBackend) RunCell(ctx context.Context, w Workload, cfg config.Configuration, opt Options) (*RunResult, bool, error) {
	b.modify(&w, &opt)
	return b.inner.RunCell(ctx, w, cfg, opt)
}

// TestForwardedCellGetsItsOwnHash: a backend that forwards a different
// cell under the context RunContext built for the original — another
// seed, or another workload — must see that cell cached under its own
// address, never under the carried one.
func TestForwardedCellGetsItsOwnHash(t *testing.T) {
	ft, err := profiles.ByName("FT")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		modify func(*Workload, *Options)
	}{
		{"another seed", func(_ *Workload, o *Options) { o.Seed++ }},
		{"another workload", func(w *Workload, _ *Options) { *w = Single(ft) }},
	} {
		cell := hashCells(t)[0]
		opt := quickOptions()
		if opt.Cache, err = runcache.New(0, ""); err != nil {
			t.Fatal(err)
		}
		sent, sentOpt := cell.Workload, opt
		c.modify(&sent, &sentOpt)
		opt.Backend = forwardBackend{inner: NewDedupe(Local()), modify: c.modify}

		before := keyHashes()
		res, err := RunContext(context.Background(), cell.Workload, cell.Config, opt)
		if err != nil {
			t.Fatal(err)
		}
		if d := keyHashes() - before; d != 2 {
			t.Errorf("%s: %d key hashes, want 2: the carried address is not the forwarded cell's, so its two tiers each hash it", c.name, d)
		}
		own, err := CacheKey(sent, cell.Config, sentOpt).Hash()
		if err != nil {
			t.Fatal(err)
		}
		carried, err := CacheKey(cell.Workload, cell.Config, opt).Hash()
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := opt.Cache.Get(own); !ok {
			t.Errorf("%s: the forwarded cell is not cached under its own address", c.name)
		}
		if _, ok := opt.Cache.Get(carried); ok {
			t.Errorf("%s: the forwarded cell's result is cached under the original cell's address", c.name)
		}
		want, err := RunContext(context.Background(), sent, cell.Config, sentOpt)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res, want) {
			t.Errorf("%s: the forwarded run differs from running that cell directly", c.name)
		}
	}
}

// TestCellHashRehashesOtherInputs changes each input of the cell key in
// turn under a context carrying the original cell's address: CellHash
// must compute the changed cell's own address, with one more hash, even
// when the change keeps the encoded bytes (a copied slice, a copied
// machine). Every field of config.Configuration is changed by
// reflection, so a field added there is covered without editing this
// test; a field added to runcache.Key fails the field count below until
// it is listed here and in cellAddr.matches.
func TestCellHashRehashesOtherInputs(t *testing.T) {
	if n := reflect.TypeOf(runcache.Key{}).NumField(); n != 10 {
		t.Fatalf("runcache.Key has %d fields; list the new ones here and in cellAddr.matches", n)
	}
	ft, err := profiles.ByName("FT")
	if err != nil {
		t.Fatal(err)
	}
	cell := hashCells(t)[3] // the pair: two programs, non-trivial slices
	base := quickOptions()
	pax := machine.PaxvilleSMP()
	base.Machine = &pax
	type input struct {
		name string
		w    Workload
		cfg  config.Configuration
		opt  Options
	}
	var inputs []input
	add := func(name string, modify func(*Workload, *config.Configuration, *Options)) {
		in := input{name: name, w: cell.Workload, cfg: cell.Config, opt: base}
		modify(&in.w, &in.cfg, &in.opt)
		inputs = append(inputs, in)
	}
	add("copied workload", func(w *Workload, _ *config.Configuration, _ *Options) {
		w.Programs = append([]profiles.Profile(nil), w.Programs...)
	})
	add("other workload", func(w *Workload, _ *config.Configuration, _ *Options) { *w = Pair(ft, ft) })
	cfgType := reflect.TypeOf(config.Configuration{})
	for i := 0; i < cfgType.NumField(); i++ {
		i := i
		add("config "+cfgType.Field(i).Name, func(_ *Workload, c *config.Configuration, _ *Options) {
			f := reflect.ValueOf(c).Elem().Field(i)
			switch f.Kind() {
			case reflect.String:
				f.SetString(f.String() + "x")
			case reflect.Bool:
				f.SetBool(!f.Bool())
			case reflect.Int:
				f.SetInt(f.Int() + 1)
			case reflect.Slice:
				// Same bytes in a new backing array.
				cp := reflect.MakeSlice(f.Type(), f.Len(), f.Len())
				reflect.Copy(cp, f)
				f.Set(cp)
			default:
				t.Fatalf("config.Configuration.%s has kind %s; teach this test to change it", cfgType.Field(i).Name, f.Kind())
			}
		})
	}
	add("copied machine", func(_ *Workload, _ *config.Configuration, o *Options) { m := pax; o.Machine = &m })
	add("default machine", func(_ *Workload, _ *config.Configuration, o *Options) { o.Machine = nil })
	add("policy", func(_ *Workload, _ *config.Configuration, o *Options) { o.Policy = sched.Block })
	add("seed", func(_ *Workload, _ *config.Configuration, o *Options) { o.Seed++ })
	add("scale", func(_ *Workload, _ *config.Configuration, o *Options) { o.Scale *= 2 })
	add("warmup", func(_ *Workload, _ *config.Configuration, o *Options) { o.WarmupFrac = 0 })
	add("cycle limit", func(_ *Workload, _ *config.Configuration, o *Options) { o.CycleLimit = 1 << 40 })
	add("sample interval", func(_ *Workload, _ *config.Configuration, o *Options) { o.SampleInterval = 1000 })

	ctx := withCellAddr(context.Background(), cell.Workload, cell.Config, base)
	if _, err := CellHash(ctx, cell.Workload, cell.Config, base); err != nil {
		t.Fatal(err)
	}
	before := keyHashes()
	if _, err := CellHash(ctx, cell.Workload, cell.Config, base); err != nil {
		t.Fatal(err)
	}
	if d := keyHashes() - before; d != 0 {
		t.Fatalf("the carried cell was hashed %d more times", d)
	}
	for _, in := range inputs {
		want, err := CacheKey(in.w, in.cfg, in.opt).Hash()
		if err != nil {
			t.Fatal(err)
		}
		before := keyHashes()
		got, err := CellHash(ctx, in.w, in.cfg, in.opt)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s: CellHash %s, want the changed cell's %s", in.name, got, want)
		}
		if d := keyHashes() - before; d != 1 {
			t.Errorf("%s: %d key hashes, want 1", in.name, d)
		}
	}

	// -0 and 0 compare equal but encode differently.
	zero := base
	zero.WarmupFrac = 0
	negZero := zero
	negZero.WarmupFrac = math.Copysign(0, -1)
	ctx = withCellAddr(context.Background(), cell.Workload, cell.Config, zero)
	got, err := CellHash(ctx, cell.Workload, cell.Config, negZero)
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := CacheKey(cell.Workload, cell.Config, negZero).Hash(); got != want {
		t.Errorf("warmup -0 was served the address of warmup 0")
	}
}

// TestCellHashConcurrent: tiers running on several goroutines under one
// context share one computation of the carried address.
func TestCellHashConcurrent(t *testing.T) {
	cell := hashCells(t)[0]
	opt := quickOptions()
	want, err := CacheKey(cell.Workload, cell.Config, opt).Hash()
	if err != nil {
		t.Fatal(err)
	}
	ctx := withCellAddr(context.Background(), cell.Workload, cell.Config, opt)
	before := keyHashes()
	var wg sync.WaitGroup
	got := make([]string, 8)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			h, err := CellHash(ctx, cell.Workload, cell.Config, opt)
			if err != nil {
				t.Error(err)
			}
			got[i] = h
		}(i)
	}
	wg.Wait()
	for i, h := range got {
		if h != want {
			t.Errorf("goroutine %d: hash %s, want %s", i, h, want)
		}
	}
	if d := keyHashes() - before; d != 1 {
		t.Errorf("%d key hashes across 8 goroutines, want 1", d)
	}
}
