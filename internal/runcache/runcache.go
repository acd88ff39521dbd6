// Package runcache is a content-addressed store for simulation results.
//
// Every cell of a characterization study — one workload on one
// configuration with one seed on one machine — is fully determined by
// plain-data inputs, so its result can be addressed by a stable hash of
// those inputs and reused across studies, ablations, and repeated
// invocations. The cross-product study shares its pairs with the pair
// study, ablations share their baselines with the unablated run, and a
// second full regeneration repeats every cell; a warm cache turns all of
// that into lookups.
//
// The store has two tiers: a bounded in-memory LRU, and an optional
// on-disk tier under a cache directory. Disk entries are checksummed and
// never trusted: a corrupted or truncated entry reads as a miss (and is
// removed), so the worst case is recomputation, never a wrong result.
// Payloads are opaque bytes — serialization of results is the caller's
// concern, which keeps this package free of dependencies on the
// experiment layer.
package runcache

import (
	"bytes"
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"sync"

	"xeonomp/internal/config"
	"xeonomp/internal/jsonfmt"
	"xeonomp/internal/machine"
	"xeonomp/internal/obs"
	"xeonomp/internal/profiles"
	"xeonomp/internal/sched"
)

// Process-wide observability series (see internal/obs): the Stats the
// progress reporter prints, mirrored into the metric registry so a
// -metrics-out snapshot carries cache traffic, plus a lookup-latency
// histogram the in-struct Stats cannot express.
var (
	obsMemHits    = obs.NewCounter(obs.MetricRuncacheMemHits)
	obsDiskHits   = obs.NewCounter(obs.MetricRuncacheDiskHits)
	obsMisses     = obs.NewCounter(obs.MetricRuncacheMisses)
	obsEvictions  = obs.NewCounter(obs.MetricRuncacheEvictions)
	obsDiskErrors = obs.NewCounter(obs.MetricRuncacheDiskErrors)
	obsLookupNs   = obs.NewHistogram(obs.MetricRuncacheLookupNs)
	obsKeyHashes  = obs.NewCounter(obs.MetricRuncacheKeyHashes)
)

// Key is the complete plain-data identity of one simulation cell. Two runs
// with equal Keys produce byte-identical results; any field difference —
// a machine-config change, another seed, a different profile — must change
// the hash. Hashing goes through canonical JSON (struct fields in
// declaration order, no maps), so re-marshalling a Key never changes it.
type Key struct {
	// Schema versions the result encoding and the simulator's observable
	// behaviour; bump it to invalidate every prior cache entry.
	Schema string
	// Machine is the fully resolved platform (never nil/default — resolve
	// presets before building the Key).
	Machine machine.Config
	// Workload lists the full profiles in placement order, not just names,
	// so a custom profile reusing a stock name cannot alias a stock cell.
	Workload []profiles.Profile
	// Config is the Table-1 row (name, contexts, thread count).
	Config config.Configuration
	// Policy is the thread-placement policy.
	Policy sched.Policy
	// Seed, Scale, WarmupFrac, CycleLimit and SampleInterval mirror the
	// run options that affect the produced result.
	Seed           uint64
	Scale          float64
	WarmupFrac     float64
	CycleLimit     int64
	SampleInterval int64
}

// Hash returns the cell's content address: the hex SHA-256 of the Key's
// canonical JSON encoding, json.Marshal(k). Existing disk caches and
// journals are addressed by these bytes, so they must never change
// without a schema bump. The encoding is built in a stack buffer, so a
// call allocates only the returned string.
func (k Key) Hash() (string, error) {
	var buf [4096]byte
	b, err := k.appendJSON(buf[:0])
	if err != nil {
		return "", fmt.Errorf("runcache: hashing key: %w", err)
	}
	obsKeyHashes.Inc()
	sum := sha256.Sum256(b)
	var h [2 * sha256.Size]byte
	hex.Encode(h[:], sum[:])
	return string(h[:]), nil
}

// appendJSON appends json.Marshal(k) to b. The machine and the profiles
// make up most of those bytes and repeat across every cell of a study,
// so their encodings come from process-wide memos; the other fields are
// written directly, in declaration order under their Go names.
func (k Key) appendJSON(b []byte) ([]byte, error) {
	m, err := machineJSON.encode(k.Machine)
	if err != nil {
		return nil, err
	}
	b = append(b, `{"Schema":`...)
	b = jsonfmt.AppendString(b, k.Schema)
	b = append(b, `,"Machine":`...)
	b = append(b, m...)
	b = append(b, `,"Workload":`...)
	if k.Workload == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, p := range k.Workload {
			pj, err := profileJSON.encode(p)
			if err != nil {
				return nil, err
			}
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, pj...)
		}
		b = append(b, ']')
	}
	b = append(b, `,"Config":`...)
	b = k.Config.AppendJSON(b)
	b = append(b, `,"Policy":`...)
	b = strconv.AppendInt(b, int64(k.Policy), 10)
	b = append(b, `,"Seed":`...)
	b = strconv.AppendUint(b, k.Seed, 10)
	b = append(b, `,"Scale":`...)
	if b, err = jsonfmt.AppendFloat(b, k.Scale); err != nil {
		return nil, err
	}
	b = append(b, `,"WarmupFrac":`...)
	if b, err = jsonfmt.AppendFloat(b, k.WarmupFrac); err != nil {
		return nil, err
	}
	b = append(b, `,"CycleLimit":`...)
	b = strconv.AppendInt(b, k.CycleLimit, 10)
	b = append(b, `,"SampleInterval":`...)
	b = strconv.AppendInt(b, k.SampleInterval, 10)
	return append(b, '}'), nil
}

// memoCap bounds each encoding memo. A process sees a handful of
// machines and profiles; past the cap, values are encoded without being
// stored.
const memoCap = 64

// jsonMemo maps values of a comparable plain-data type to their JSON
// encodings.
type jsonMemo[T comparable] struct {
	mu sync.Mutex
	m  map[T][]byte
}

var (
	machineJSON jsonMemo[machine.Config]
	profileJSON jsonMemo[profiles.Profile]
)

// encode returns json.Marshal(v), from the memo when v was seen before.
// The returned bytes are shared and must not be modified.
func (c *jsonMemo[T]) encode(v T) ([]byte, error) {
	if !memoizable(reflect.ValueOf(&v).Elem()) {
		return json.Marshal(v)
	}
	c.mu.Lock()
	b, ok := c.m[v]
	c.mu.Unlock()
	if ok {
		return b, nil
	}
	b, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.m == nil {
		c.m = map[T][]byte{}
	}
	if len(c.m) < memoCap {
		c.m[v] = b
	}
	return b, nil
}

// memoizable reports whether v's encoding is a function of its map-key
// identity. A negative-zero float is not: -0 == 0, so it would find the
// entry of its positive twin, whose encoding differs ("-0" vs "0"). Nor
// is anything behind a pointer or interface, which == compares by
// address.
func memoizable(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.Float32, reflect.Float64:
		f := v.Float()
		return f != 0 || !math.Signbit(f)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if !memoizable(v.Field(i)) {
				return false
			}
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			if !memoizable(v.Index(i)) {
				return false
			}
		}
	case reflect.Pointer, reflect.Interface, reflect.UnsafePointer:
		return false
	}
	return true
}

// Stats counts cache traffic. Hits splits into memory and disk tiers;
// Misses counts lookups neither tier satisfied; Evictions counts LRU
// removals from the memory tier; DiskErrors counts on-disk entries that
// failed the checksum or could not be read and were treated as misses.
type Stats struct {
	MemHits    uint64
	DiskHits   uint64
	Misses     uint64
	Evictions  uint64
	DiskErrors uint64
}

// Hits returns total hits across both tiers.
func (s Stats) Hits() uint64 { return s.MemHits + s.DiskHits }

// HitRate returns hits/(hits+misses), or 0 before any lookup.
func (s Stats) HitRate() float64 {
	n := s.Hits() + s.Misses
	if n == 0 {
		return 0
	}
	return float64(s.Hits()) / float64(n)
}

// entry is one memory-tier element.
type entry struct {
	hash    string
	payload []byte
}

// Cache is the two-tier content-addressed store. It is safe for
// concurrent use; a nil *Cache is inert (Get always misses, Put is a
// no-op), so callers can thread it through unconditionally. The mutex
// guards the memory tier and the stats only: disk reads and writes run
// outside it, so concurrent lookups do not queue behind each other's
// file I/O.
type Cache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List               // front = most recently used
	items map[string]*list.Element // hash -> element holding *entry
	dir   string                   // "" = memory only
	stats Stats
}

// DefaultMemEntries is the memory-tier capacity used when callers pass a
// non-positive size to New.
const DefaultMemEntries = 4096

// New builds a cache holding at most memEntries results in memory
// (<= 0 selects DefaultMemEntries). A non-empty dir adds the persistent
// tier; the directory is created if needed.
func New(memEntries int, dir string) (*Cache, error) {
	if memEntries <= 0 {
		memEntries = DefaultMemEntries
	}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("runcache: creating %s: %w", dir, err)
		}
	}
	return &Cache{
		cap:   memEntries,
		ll:    list.New(),
		items: map[string]*list.Element{},
		dir:   dir,
	}, nil
}

// Get returns the payload stored under hash. A memory hit refreshes LRU
// order; a disk hit is promoted into the memory tier. The returned slice
// must not be modified by the caller.
func (c *Cache) Get(hash string) ([]byte, bool) {
	if c == nil {
		return nil, false
	}
	t := obs.StartTimer()
	defer obsLookupNs.ObserveSince(t)
	if payload, ok := c.memGet(hash); ok {
		return payload, true
	}
	var payload []byte
	var err error
	if c.dir != "" {
		payload, err = c.loadDisk(hash)
		if err != nil {
			// Corrupted or unreadable: drop the entry and recompute. If a
			// concurrent Put of the same hash lands between the read and
			// the removal, the removal takes the fresh entry with it,
			// which costs one more recompute, never a wrong result.
			_ = os.Remove(c.path(hash)) // best effort; a stale entry only costs a recompute
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	switch {
	case err != nil:
		c.stats.DiskErrors++
		obsDiskErrors.Inc()
	case payload != nil:
		c.stats.DiskHits++
		obsDiskHits.Inc()
		c.insertLocked(hash, payload)
		return payload, true
	}
	c.stats.Misses++
	obsMisses.Inc()
	return nil, false
}

// memGet serves hash from the memory tier, refreshing its LRU order.
func (c *Cache) memGet(hash string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[hash]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	c.stats.MemHits++
	obsMemHits.Inc()
	return el.Value.(*entry).payload, true
}

// Put stores payload under hash in the memory tier and, when a cache
// directory is configured, on disk. Disk write failures are returned but
// leave the memory tier populated, so the run can proceed.
func (c *Cache) Put(hash string, payload []byte) error {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	c.insertLocked(hash, payload)
	c.mu.Unlock()
	if c.dir == "" {
		return nil
	}
	return c.writeDisk(hash, payload)
}

// Stats returns a snapshot of the traffic counters.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Len returns the number of memory-tier entries.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// insertLocked adds or refreshes a memory-tier entry, evicting from the
// LRU tail when over capacity. Callers hold c.mu.
func (c *Cache) insertLocked(hash string, payload []byte) {
	if el, ok := c.items[hash]; ok {
		el.Value.(*entry).payload = payload
		c.ll.MoveToFront(el)
		return
	}
	c.items[hash] = c.ll.PushFront(&entry{hash: hash, payload: payload})
	for c.ll.Len() > c.cap {
		tail := c.ll.Back()
		c.ll.Remove(tail)
		delete(c.items, tail.Value.(*entry).hash)
		c.stats.Evictions++
		obsEvictions.Inc()
	}
}

// diskMagic heads every on-disk entry; it versions the file format.
const diskMagic = "xeonomp-runcache-v1"

// path returns the on-disk file for a hash.
func (c *Cache) path(hash string) string {
	return filepath.Join(c.dir, hash+".run")
}

// writeDisk persists an entry atomically: header line with a payload
// checksum, then the payload, written to a temp file and renamed into
// place so a crash never leaves a half-written entry under the final name.
func (c *Cache) writeDisk(hash string, payload []byte) error {
	sum := sha256.Sum256(payload)
	header := fmt.Sprintf("%s %s\n", diskMagic, hex.EncodeToString(sum[:]))
	tmp, err := os.CreateTemp(c.dir, "tmp-*.run")
	if err != nil {
		return fmt.Errorf("runcache: temp file: %w", err)
	}
	name := tmp.Name()
	_, werr := tmp.WriteString(header)
	if werr == nil {
		_, werr = tmp.Write(payload)
	}
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		_ = os.Remove(name) // best effort; the write error below is the real failure
		if werr == nil {
			werr = cerr
		}
		return fmt.Errorf("runcache: writing %s: %w", hash, werr)
	}
	if err := os.Rename(name, c.path(hash)); err != nil {
		_ = os.Remove(name) // best effort; the rename error below is the real failure
		return fmt.Errorf("runcache: committing %s: %w", hash, err)
	}
	return nil
}

// loadDisk reads and verifies an on-disk entry. It returns (nil, nil)
// when the entry does not exist and a non-nil error when it exists but is
// corrupt — wrong magic, wrong checksum, or truncated.
func (c *Cache) loadDisk(hash string) ([]byte, error) {
	raw, err := os.ReadFile(c.path(hash))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	header, payload, ok := bytes.Cut(raw, []byte{'\n'})
	if !ok {
		return nil, fmt.Errorf("runcache: %s: truncated header", hash)
	}
	magic, want, _ := bytes.Cut(header, []byte{' '})
	if string(magic) != diskMagic {
		return nil, fmt.Errorf("runcache: %s: bad header", hash)
	}
	sum := sha256.Sum256(payload)
	var got [2 * sha256.Size]byte
	hex.Encode(got[:], sum[:])
	if !bytes.Equal(got[:], want) {
		return nil, fmt.Errorf("runcache: %s: checksum mismatch", hash)
	}
	return payload, nil
}
