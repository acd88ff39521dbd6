package runcache_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"testing"

	"xeonomp/internal/config"
	"xeonomp/internal/core"
	"xeonomp/internal/machine"
	"xeonomp/internal/profiles"
	"xeonomp/internal/runcache"
)

// TestKeyHashIsCanonicalJSON pins Hash to hex(SHA-256(json.Marshal(k)))
// for every cell key of the three studies on both platforms, so the
// memoized encodings can never drift from the plain one. Each key is
// hashed twice; the second call is served from the memos.
func TestKeyHashIsCanonicalJSON(t *testing.T) {
	for _, platform := range []struct {
		name string
		m    machine.Config
	}{{"PaxvilleSMP", machine.PaxvilleSMP()}, {"PrestoniaSMP", machine.PrestoniaSMP()}} {
		opt := core.DefaultOptions()
		opt.Machine = &platform.m
		for _, name := range core.StudyNames() {
			study, err := core.NewStudy(name)
			if err != nil {
				t.Fatal(err)
			}
			cells, err := study.Cells()
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range cells {
				k := core.CacheKey(c.Workload, c.Config, opt)
				b, err := json.Marshal(k)
				if err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256(b)
				want := hex.EncodeToString(sum[:])
				for i := 0; i < 2; i++ {
					got, err := k.Hash()
					if err != nil {
						t.Fatal(err)
					}
					if got != want {
						t.Fatalf("%s|%s on %s, call %d: hash %s, want %s", c.Workload.Name(), c.Config.Name, platform.name, i+1, got, want)
					}
				}
			}
		}
	}
}

// TestKeyHashIsCanonicalJSONOddInputs extends TestKeyHashIsCanonicalJSON
// past the studies' keys to inputs whose encoding takes encoding/json's
// less travelled paths: names and labels that need escapes (HTML
// characters, U+2028, quotes, control bytes, invalid UTF-8), floats in
// exponent form and at the edges of the float format, extreme integers,
// and nil against empty slices. A NaN or infinite scale has no JSON form
// and must stay an error.
func TestKeyHashIsCanonicalJSONOddInputs(t *testing.T) {
	base := func() runcache.Key {
		opt := core.DefaultOptions()
		cells, err := core.NewSingleStudy().Cells()
		if err != nil {
			t.Fatal(err)
		}
		c := cells[len(cells)-1]
		return core.CacheKey(c.Workload, c.Config, opt)
	}
	negZero := math.Copysign(0, -1)
	for _, m := range []struct {
		name   string
		mutate func(*runcache.Key)
	}{
		{"escaped schema", func(k *runcache.Key) { k.Schema = "<run>& \"v1\"" }},
		{"escaped config name", func(k *runcache.Key) { k.Config.Name = "HT <on> & \u2028\u2029 \\ \x01" }},
		{"invalid UTF-8 arch", func(k *runcache.Key) { k.Config.Arch = "\xff\xfe" }},
		{"escaped labels", func(k *runcache.Key) { k.Config.Labels = []string{"A0", "<A1>", "é", "\x7f", "\xc3"} }},
		{"nil labels and contexts", func(k *runcache.Key) { k.Config.Labels, k.Config.Contexts = nil, nil }},
		{"empty labels and contexts", func(k *runcache.Key) { k.Config.Labels, k.Config.Contexts = []string{}, []config.CtxID{} }},
		{"nil workload", func(k *runcache.Key) { k.Workload = nil }},
		{"empty workload", func(k *runcache.Key) { k.Workload = []profiles.Profile{} }},
		{"negative ints", func(k *runcache.Key) { k.Config.Threads, k.Config.Chips, k.Policy = -1, math.MinInt32, -7 }},
		{"extreme ints", func(k *runcache.Key) {
			k.Seed, k.CycleLimit, k.SampleInterval = math.MaxUint64, math.MinInt64, math.MaxInt64
		}},
		{"scale 1e-7", func(k *runcache.Key) { k.Scale = 1e-7 }},
		{"scale just under 1e-6", func(k *runcache.Key) { k.Scale = math.Nextafter(1e-6, 0) }},
		{"scale 1e-6", func(k *runcache.Key) { k.Scale = 1e-6 }},
		{"scale 1e21", func(k *runcache.Key) { k.Scale = 1e21 }},
		{"scale just under 1e21", func(k *runcache.Key) { k.Scale = math.Nextafter(1e21, 0) }},
		{"scale -0", func(k *runcache.Key) { k.Scale = negZero }},
		{"scale smallest subnormal", func(k *runcache.Key) { k.Scale = math.SmallestNonzeroFloat64 }},
		{"scale max float", func(k *runcache.Key) { k.Scale = -math.MaxFloat64 }},
		{"warmup 1/3", func(k *runcache.Key) { k.WarmupFrac = 1.0 / 3 }},
		{"warmup -1e-300", func(k *runcache.Key) { k.WarmupFrac = -1e-300 }},
		{"warmup 123456789012345678", func(k *runcache.Key) { k.WarmupFrac = 123456789012345678 }},
	} {
		k := base()
		m.mutate(&k)
		b, err := json.Marshal(k)
		if err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		sum := sha256.Sum256(b)
		want := hex.EncodeToString(sum[:])
		for i := 0; i < 2; i++ {
			got, err := k.Hash()
			if err != nil {
				t.Fatalf("%s: %v", m.name, err)
			}
			if got != want {
				t.Fatalf("%s, call %d: hash %s, want %s of\n%s", m.name, i+1, got, want, b)
			}
		}
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		k := base()
		k.Scale = bad
		if _, err := json.Marshal(k); err == nil {
			t.Fatalf("json.Marshal encodes scale %v", bad)
		}
		if h, err := k.Hash(); err == nil {
			t.Fatalf("scale %v hashed to %s, want an error", bad, h)
		}
	}
}

// keyHashCells are the cell keys BenchmarkKeyHash and TestKeyHashAllocs
// time: the smallest (one program on Serial) and the largest (a pair on
// all eight contexts) the studies hash.
func keyHashCells(tb testing.TB) map[string]runcache.Key {
	tb.Helper()
	cg, err := profiles.ByName("CG")
	if err != nil {
		tb.Fatal(err)
	}
	ft, err := profiles.ByName("FT")
	if err != nil {
		tb.Fatal(err)
	}
	serial, err := config.ByArch(config.Serial)
	if err != nil {
		tb.Fatal(err)
	}
	full, err := config.ByArch(config.CMTSMP)
	if err != nil {
		tb.Fatal(err)
	}
	opt := core.DefaultOptions()
	return map[string]runcache.Key{
		"single": core.CacheKey(core.Single(cg), serial, opt),
		"pair":   core.CacheKey(core.Pair(cg, ft), full, opt),
	}
}

// TestKeyHashAllocs guards Hash's allocations: once the encoding memos
// are warm, a call allocates only the returned string.
func TestKeyHashAllocs(t *testing.T) {
	for name, k := range keyHashCells(t) {
		n := testing.AllocsPerRun(100, func() {
			if _, err := k.Hash(); err != nil {
				t.Fatal(err)
			}
		})
		if n > 1 {
			t.Errorf("%s: Key.Hash makes %.0f allocations, want at most 1", name, n)
		}
	}
}

// BenchmarkKeyHash times the content address every cell-addressing tier
// shares (runcache.key_hash_ns in the benchmark ledger).
func BenchmarkKeyHash(b *testing.B) {
	for _, name := range []string{"single", "pair"} {
		k := keyHashCells(b)[name]
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := k.Hash(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
