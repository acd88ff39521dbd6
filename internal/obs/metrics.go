package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing event count. All methods are
// atomic; the zero value is usable but unregistered.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a last-write-wins float64 level (worker utilization, cycles
// per wall second). All methods are atomic.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the last stored value (0 before any Set).
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// histBuckets is the fixed bucket count of every histogram: bucket i
// counts observations v with 2^(i-1) < v <= 2^i-ish — precisely, values
// whose bit length is i — plus bucket 0 for v <= 0. 64 log2 buckets cover
// the full int64 range (1 ns to ~292 years when observing nanoseconds),
// so histograms never need configuration and snapshots never need
// rebucketing to compare.
const histBuckets = 65

// Histogram counts int64 observations in fixed log2 buckets and tracks
// their sum and count. All methods are atomic; observation never
// allocates.
type Histogram struct {
	count  atomic.Uint64
	sum    atomic.Int64
	bucket [histBuckets]atomic.Uint64
}

// bucketOf returns the bucket index of v: 0 for v <= 0, else bit length
// (so 1 -> 1, 2..3 -> 2, 4..7 -> 3, ...).
func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v))
}

// BucketUpperBound returns the inclusive upper bound of bucket i: 0 for
// bucket 0, else 2^i - 1.
func BucketUpperBound(i int) int64 {
	if i <= 0 {
		return 0
	}
	if i >= 64 {
		return math.MaxInt64
	}
	return int64(1)<<i - 1
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	h.count.Add(1)
	h.sum.Add(v)
	h.bucket[bucketOf(v)].Add(1)
}

// ObserveSince records the wall nanoseconds elapsed since t — the latency
// idiom: t := obs.StartTimer(); defer hist.ObserveSince(t).
func (h *Histogram) ObserveSince(t Timer) { h.Observe(t.ElapsedNs()) }

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Registry holds the process's metric families by name. Registration is
// idempotent — re-registering a name returns the existing instrument — so
// package-level instrument variables stay valid across registry Resets
// and repeated test runs. A name registers as exactly one kind; mixing
// kinds panics, because it is a programming error.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Default is the process-wide registry every instrumented package
// registers into and the -metrics-out flag snapshots.
var Default = NewRegistry()

func (r *Registry) checkFree(name, kind string) {
	if _, ok := r.counters[name]; ok && kind != "counter" {
		panic(fmt.Sprintf("obs: %s already registered as a counter", name))
	}
	if _, ok := r.gauges[name]; ok && kind != "gauge" {
		panic(fmt.Sprintf("obs: %s already registered as a gauge", name))
	}
	if _, ok := r.hists[name]; ok && kind != "histogram" {
		panic(fmt.Sprintf("obs: %s already registered as a histogram", name))
	}
}

// Counter returns the counter registered under name, creating it if
// needed.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	r.checkFree(name, "counter")
	c := &Counter{}
	r.counters[name] = c
	return c
}

// Gauge returns the gauge registered under name, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	r.checkFree(name, "gauge")
	g := &Gauge{}
	r.gauges[name] = g
	return g
}

// Histogram returns the histogram registered under name, creating it if
// needed.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[name]; ok {
		return h
	}
	r.checkFree(name, "histogram")
	h := &Histogram{}
	r.hists[name] = h
	return h
}

// NewCounter registers (or retrieves) a counter in the Default registry.
func NewCounter(name string) *Counter { return Default.Counter(name) }

// NewGauge registers (or retrieves) a gauge in the Default registry.
func NewGauge(name string) *Gauge { return Default.Gauge(name) }

// NewHistogram registers (or retrieves) a histogram in the Default
// registry.
func NewHistogram(name string) *Histogram { return Default.Histogram(name) }

// Reset zeroes every registered instrument without unregistering it, so
// package-level instrument pointers stay live. Tests use it to measure
// deltas against the process-wide Default registry.
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.counters {
		c.v.Store(0)
	}
	for _, g := range r.gauges {
		g.bits.Store(0)
	}
	for _, h := range r.hists {
		h.count.Store(0)
		h.sum.Store(0)
		for i := range h.bucket {
			h.bucket[i].Store(0)
		}
	}
}

// HistogramBucket is one populated bucket of a histogram snapshot.
type HistogramBucket struct {
	// UpperBound is the bucket's inclusive upper bound (0, 1, 3, 7, 15,
	// ... 2^i-1): the fixed log2 scale.
	UpperBound int64 `json:"le"`
	// N is the number of observations that landed in this bucket.
	N uint64 `json:"n"`
}

// HistogramSnapshot is the serializable state of one histogram; only
// populated buckets appear, in ascending bound order.
type HistogramSnapshot struct {
	Count   uint64            `json:"count"`
	Sum     int64             `json:"sum"`
	Buckets []HistogramBucket `json:"buckets,omitempty"`
}

// Snapshot is a point-in-time copy of a registry. Map keys serialize in
// sorted order (encoding/json sorts map keys), so two snapshots of equal
// state marshal byte-identically regardless of registration order — the
// diff-stable property -metrics-out relies on.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot copies the registry's current state.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{}
	if len(r.counters) > 0 {
		s.Counters = make(map[string]uint64, len(r.counters))
		for name, c := range r.counters {
			s.Counters[name] = c.Value()
		}
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]float64, len(r.gauges))
		for name, g := range r.gauges {
			s.Gauges[name] = g.Value()
		}
	}
	if len(r.hists) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(r.hists))
		for name, h := range r.hists {
			hs := HistogramSnapshot{Count: h.Count(), Sum: h.Sum()}
			// Ascending bucket index is ascending upper bound, so the
			// slice is born sorted.
			for i := range h.bucket {
				if n := h.bucket[i].Load(); n > 0 {
					hs.Buckets = append(hs.Buckets, HistogramBucket{UpperBound: BucketUpperBound(i), N: n})
				}
			}
			s.Histograms[name] = hs
		}
	}
	return s
}

// WriteJSON writes the registry snapshot as indented JSON with sorted
// keys — the -metrics-out payload.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r.Snapshot()); err != nil {
		return fmt.Errorf("obs: encoding metrics snapshot: %w", err)
	}
	return nil
}
