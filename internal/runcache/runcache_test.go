package runcache

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"xeonomp/internal/config"
	"xeonomp/internal/machine"
	"xeonomp/internal/profiles"
	"xeonomp/internal/sched"
	"xeonomp/internal/units"
)

func baseKey(t *testing.T) Key {
	t.Helper()
	cg, err := profiles.ByName("CG")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := config.ByArch(config.CMT)
	if err != nil {
		t.Fatal(err)
	}
	return Key{
		Schema:         "test/v1",
		Machine:        machine.PaxvilleSMP(),
		Workload:       []profiles.Profile{cg},
		Config:         cfg,
		Policy:         sched.Alternate,
		Seed:           1,
		Scale:          1.0,
		WarmupFrac:     0.35,
		CycleLimit:     0,
		SampleInterval: 0,
	}
}

// TestKeyStability pins that every input that can change a simulation
// result changes the content address.
func TestKeyStability(t *testing.T) {
	base, err := baseKey(t).Hash()
	if err != nil {
		t.Fatal(err)
	}
	mutations := []struct {
		name   string
		mutate func(*Key)
	}{
		{"schema", func(k *Key) { k.Schema = "test/v2" }},
		{"machine L2 size", func(k *Key) { k.Machine.L2.Size = 2 * units.MiB }},
		{"machine FSB bandwidth", func(k *Key) { k.Machine.FSBBandwidth /= 2 }},
		{"machine SMT clash", func(k *Key) { k.Machine.Lat.SMTClash = 0 }},
		{"machine prefetch gate", func(k *Key) { k.Machine.PrefetchGate = -1 }},
		{"machine topology", func(k *Key) { k.Machine.Chips = 1 }},
		{"profile name", func(k *Key) { k.Workload[0].Name = "FT" }},
		{"profile instruction budget", func(k *Key) { k.Workload[0].SerialInstr++ }},
		{"profile working set", func(k *Key) { k.Workload[0].Params.WarmBytes++ }},
		{"workload size", func(k *Key) { k.Workload = append(k.Workload, k.Workload[0]) }},
		{"config name", func(k *Key) { k.Config.Name = "other" }},
		{"config contexts", func(k *Key) { k.Config.Contexts = k.Config.Contexts[:1] }},
		{"config threads", func(k *Key) { k.Config.Threads++ }},
		{"policy", func(k *Key) { k.Policy = sched.Block }},
		{"seed", func(k *Key) { k.Seed++ }},
		{"scale", func(k *Key) { k.Scale = 0.5 }},
		{"warmup", func(k *Key) { k.WarmupFrac = 0 }},
		{"cycle limit", func(k *Key) { k.CycleLimit = 1 }},
		{"sample interval", func(k *Key) { k.SampleInterval = 500_000 }},
	}
	for _, m := range mutations {
		t.Run(m.name, func(t *testing.T) {
			k := baseKey(t)
			m.mutate(&k)
			h, err := k.Hash()
			if err != nil {
				t.Fatal(err)
			}
			if h == base {
				t.Fatalf("mutating %s did not change the cache key", m.name)
			}
		})
	}
}

// TestKeyRemarshalStable pins that hashing is a pure function of the
// Key's value: repeated hashing and a JSON round trip do not change it.
func TestKeyRemarshalStable(t *testing.T) {
	k := baseKey(t)
	h1, err := k.Hash()
	if err != nil {
		t.Fatal(err)
	}
	h2, err := k.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Fatalf("re-hashing changed the key: %s vs %s", h1, h2)
	}
	b, err := json.Marshal(k)
	if err != nil {
		t.Fatal(err)
	}
	var k2 Key
	if err := json.Unmarshal(b, &k2); err != nil {
		t.Fatal(err)
	}
	h3, err := k2.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h3 != h1 {
		t.Fatalf("JSON round trip changed the key: %s vs %s", h3, h1)
	}
}

// plainHash is the content-address definition Hash must keep:
// hex(SHA-256(json.Marshal(k))).
func plainHash(t *testing.T, k Key) string {
	t.Helper()
	b, err := json.Marshal(k)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestKeyHashPinned pins baseKey's content address as a literal. Every
// disk cache and journal is addressed by such hashes: reordering or
// renaming a field of Key, machine.Config, profiles.Profile or
// config.Configuration fails here instead of silently orphaning them.
// Such a change needs a run-schema bump. The second Hash is served from
// the encoding memos.
func TestKeyHashPinned(t *testing.T) {
	const want = "e433091e6bf5077bbe990abfbe0e46d149ab3cdd675811794fc2020c48c9104f"
	for i := 0; i < 2; i++ {
		h, err := baseKey(t).Hash()
		if err != nil {
			t.Fatal(err)
		}
		if h != want {
			t.Fatalf("call %d: baseKey hash = %s, want %s", i+1, h, want)
		}
	}
}

// TestKeyHashNegativeZero pins that a negative-zero float bypasses the
// encoding memos: -0 == 0 as a map key, but the two encode differently,
// so neither may be served the other's bytes, whichever is seen first.
func TestKeyHashNegativeZero(t *testing.T) {
	negZero := math.Copysign(0, -1)
	machineZero := func(k *Key, z float64) { k.Machine.Lat.SMTClash = z }
	profileZero := func(k *Key, z float64) { k.Workload[0].Params.RandFrac = z }
	for _, tc := range []struct {
		name   string
		set    func(*Key, float64)
		zeroes []float64
	}{
		{"machine, +0 first", machineZero, []float64{0, negZero}},
		{"profile, -0 first", profileZero, []float64{negZero, 0}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var hashes []string
			for _, z := range tc.zeroes {
				k := baseKey(t)
				tc.set(&k, z)
				for i := 0; i < 2; i++ {
					h, err := k.Hash()
					if err != nil {
						t.Fatal(err)
					}
					if want := plainHash(t, k); h != want {
						t.Fatalf("zero %v, call %d: hash = %s, want %s", z, i+1, h, want)
					}
				}
				h, err := k.Hash()
				if err != nil {
					t.Fatal(err)
				}
				hashes = append(hashes, h)
			}
			if hashes[0] == hashes[1] {
				t.Fatal("-0 and +0 keys share a content address")
			}
		})
	}
}

// TestKeyHashConcurrent hashes keys from several goroutines at once, so
// the race detector sees the encoding memos shared.
func TestKeyHashConcurrent(t *testing.T) {
	var keys []Key
	var want []string
	for i := 0; i < 8; i++ {
		k := baseKey(t)
		k.Machine.L2.Size <<= i % 4
		k.Workload[0].SerialInstr += int64(i / 4)
		keys = append(keys, k)
		want = append(want, plainHash(t, k))
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, k := range keys {
				if h, err := k.Hash(); err != nil || h != want[i] {
					t.Errorf("key %d: hash %s, %v; want %s", i, h, err, want[i])
				}
			}
		}()
	}
	wg.Wait()
}

// TestConcurrentGetPut drives both tiers from several goroutines at once.
// Disk reads and writes run outside the cache mutex, so the race detector
// and the checks here cover them; a one-entry memory tier sends most
// lookups to disk.
func TestConcurrentGetPut(t *testing.T) {
	c, err := New(1, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const workers, cells = 4, 16
	payload := func(i int) []byte { return []byte(fmt.Sprintf(`{"cell":%d}`, i)) }
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < 200; n++ {
				i := (w*7 + n) % cells
				hash := fmt.Sprintf("%064x", i)
				if got, ok := c.Get(hash); ok {
					if !bytes.Equal(got, payload(i)) {
						t.Errorf("cell %d served %q", i, got)
						return
					}
					continue
				}
				if err := c.Put(hash, payload(i)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if s := c.Stats(); s.DiskErrors != 0 || s.DiskHits == 0 {
		t.Fatalf("stats = %+v, want disk hits and no disk errors", s)
	}
}

func TestMemoryTierLRU(t *testing.T) {
	c, err := New(2, "")
	if err != nil {
		t.Fatal(err)
	}
	c.Put("a", []byte("A"))
	c.Put("b", []byte("B"))
	if _, ok := c.Get("a"); !ok { // refresh a: b becomes LRU
		t.Fatal("a missing before eviction")
	}
	c.Put("c", []byte("C"))
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted as least recently used")
	}
	if v, ok := c.Get("a"); !ok || string(v) != "A" {
		t.Fatalf("a = %q, %v", v, ok)
	}
	if v, ok := c.Get("c"); !ok || string(v) != "C" {
		t.Fatalf("c = %q, %v", v, ok)
	}
	s := c.Stats()
	if s.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", s.Evictions)
	}
	if s.MemHits != 3 || s.Misses != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestDiskTierRoundTrip(t *testing.T) {
	dir := t.TempDir()
	c1, err := New(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.Put("deadbeef", []byte(`{"x":1}`)); err != nil {
		t.Fatal(err)
	}
	// A fresh cache over the same directory serves the entry from disk.
	c2, err := New(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	v, ok := c2.Get("deadbeef")
	if !ok || string(v) != `{"x":1}` {
		t.Fatalf("disk get = %q, %v", v, ok)
	}
	if s := c2.Stats(); s.DiskHits != 1 {
		t.Fatalf("stats = %+v, want one disk hit", s)
	}
	// Promoted to memory: second get is a memory hit.
	if _, ok := c2.Get("deadbeef"); !ok {
		t.Fatal("promoted entry missing")
	}
	if s := c2.Stats(); s.MemHits != 1 {
		t.Fatalf("stats = %+v, want one memory hit", s)
	}
}

// TestDiskCorruptionIsAMiss pins the corruption-safety contract: a
// damaged entry reads as a miss and is removed, never returned.
func TestDiskCorruptionIsAMiss(t *testing.T) {
	for name, corrupt := range map[string]func([]byte) []byte{
		"flipped payload byte": func(b []byte) []byte { b[len(b)-2] ^= 0xff; return b },
		"truncated":            func(b []byte) []byte { return b[:len(b)/2] },
		"no header":            func([]byte) []byte { return []byte("garbage") },
		"empty":                func([]byte) []byte { return nil },
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			c, err := New(0, dir)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Put("cafe", []byte("payload")); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, "cafe.run")
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, corrupt(raw), 0o644); err != nil {
				t.Fatal(err)
			}
			fresh, err := New(0, dir)
			if err != nil {
				t.Fatal(err)
			}
			if v, ok := fresh.Get("cafe"); ok {
				t.Fatalf("corrupt entry served: %q", v)
			}
			if s := fresh.Stats(); s.DiskErrors != 1 || s.Misses != 1 {
				t.Fatalf("stats = %+v, want one disk error and one miss", s)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatal("corrupt entry not removed")
			}
			// The slot is reusable after recomputation.
			if err := fresh.Put("cafe", []byte("recomputed")); err != nil {
				t.Fatal(err)
			}
			if v, ok := fresh.Get("cafe"); !ok || string(v) != "recomputed" {
				t.Fatalf("recomputed entry = %q, %v", v, ok)
			}
		})
	}
}

func TestNilCacheIsInert(t *testing.T) {
	var c *Cache
	if _, ok := c.Get("x"); ok {
		t.Fatal("nil cache returned a hit")
	}
	if err := c.Put("x", []byte("y")); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 0 || c.Stats() != (Stats{}) {
		t.Fatal("nil cache not inert")
	}
}

// FuzzDiskEntry writes arbitrary bytes as a disk entry. Get must never
// panic, may serve a payload only when the header is exactly the magic,
// one space and the payload's hex SHA-256, and otherwise must count a
// disk error and a miss and remove the file.
func FuzzDiskEntry(f *testing.F) {
	dir := f.TempDir()
	c, err := New(0, dir)
	if err != nil {
		f.Fatal(err)
	}
	if err := c.Put("cafe", []byte(`{"schema":"xeonomp/run/v1","wall_cycles":1}`)); err != nil {
		f.Fatal(err)
	}
	entry, err := os.ReadFile(filepath.Join(dir, "cafe.run"))
	if err != nil {
		f.Fatal(err)
	}
	header, payload, _ := bytes.Cut(entry, []byte{'\n'})
	f.Add(entry)
	f.Add(entry[:len(entry)/2])
	f.Add(append([]byte("xeonomp-runcache-v0"), entry[len(diskMagic):]...))
	f.Add(append(append(append([]byte{}, header...), " junk\n"...), payload...))
	f.Add([]byte(diskMagic + "\n"))
	f.Add([]byte{})
	path := filepath.Join(dir, "cafe.run")
	f.Fuzz(func(t *testing.T, raw []byte) {
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := New(0, dir)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := c.Get("cafe")

		header, payload, found := bytes.Cut(raw, []byte{'\n'})
		sum := sha256.Sum256(payload)
		valid := found && string(header) == diskMagic+" "+hex.EncodeToString(sum[:])
		s := c.Stats()
		_, statErr := os.Stat(path)
		switch {
		case ok != valid:
			t.Fatalf("Get served=%v for an entry whose framing verifies=%v", ok, valid)
		case ok && !bytes.Equal(got, payload):
			t.Fatalf("Get served %q, want the payload %q", got, payload)
		case ok && (s.DiskHits != 1 || statErr != nil):
			t.Fatalf("verified entry: stats %+v, stat error %v", s, statErr)
		case !ok && (s.DiskErrors != 1 || s.Misses != 1 || !os.IsNotExist(statErr)):
			t.Fatalf("rejected entry: stats %+v, stat error %v; want one disk error, one miss and the file removed", s, statErr)
		}
	})
}
