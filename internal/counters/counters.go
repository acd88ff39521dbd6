// Package counters implements the hardware-performance-counter layer of the
// simulator. Every modeled structure (caches, TLBs, predictor, bus, pipeline)
// increments events in a Set, playing the role VTune and the Xeon's
// performance-monitoring unit play in the paper. Derived metrics — the nine
// quantities plotted in Figures 2 and 4 — are computed from a Set by Derive.
package counters

import (
	"fmt"
	"strings"

	"xeonomp/internal/stats"
)

// Event identifies one countable hardware event.
type Event int

// The counted events. The set mirrors the events the paper collects with
// VTune on the Paxville PMU, plus the byte counters used for bandwidth
// calibration.
const (
	Cycles       Event = iota // core clock cycles during which the context was active
	Instructions              // instructions retired
	StallCycles               // cycles the context spent stalled (memory, flush, fetch)

	L1DAccess // L1 data cache lookups
	L1DMiss   // L1 data cache misses
	L2Access  // unified L2 lookups (demand)
	L2Miss    // unified L2 demand misses
	TCAccess  // execution trace cache fetch lookups
	TCMiss    // execution trace cache misses (decode pipeline engaged)

	ITLBAccess
	ITLBMiss
	DTLBAccess // load+store address translations
	DTLBMiss   // load+store translation misses

	BranchRetired
	BranchMispredicted

	BusDemandRead // FSB transactions: demand line reads
	BusRFO        // FSB transactions: read-for-ownership (store misses)
	BusWriteback  // FSB transactions: dirty evictions
	BusPrefetch   // FSB transactions: hardware prefetches
	BusInvalidate // coherence invalidations sent to remote cores

	PrefetchIssued // prefetch requests generated (some are dropped at the bus)
	PrefetchUseful // prefetched lines later hit by demand accesses

	MemReadBytes  // bytes read from DRAM
	MemWriteBytes // bytes written to DRAM

	BarrierCycles // cycles spent waiting at OpenMP barrier points

	numEvents
)

var eventNames = [numEvents]string{
	"cycles", "instructions", "stall_cycles",
	"l1d_access", "l1d_miss", "l2_access", "l2_miss", "tc_access", "tc_miss",
	"itlb_access", "itlb_miss", "dtlb_access", "dtlb_miss",
	"branch_retired", "branch_mispredicted",
	"bus_demand_read", "bus_rfo", "bus_writeback", "bus_prefetch", "bus_invalidate",
	"prefetch_issued", "prefetch_useful",
	"mem_read_bytes", "mem_write_bytes",
	"barrier_cycles",
}

// NumEvents is the number of distinct events.
const NumEvents = int(numEvents)

// String returns the stable lower_snake name of the event.
func (e Event) String() string {
	if e < 0 || e >= numEvents {
		return fmt.Sprintf("event(%d)", int(e))
	}
	return eventNames[e]
}

// Events returns all events in declaration order.
func Events() []Event {
	es := make([]Event, numEvents)
	for i := range es {
		es[i] = Event(i)
	}
	return es
}

// Set is one counter bank: a fixed array of event counts. The zero value is
// ready to use. Sets are not safe for concurrent mutation; the simulator
// gives each hardware context its own Set and merges after a run.
type Set struct {
	c [numEvents]uint64
}

// Inc increments event e by one.
func (s *Set) Inc(e Event) { s.c[e]++ }

// Add increments event e by n.
func (s *Set) Add(e Event, n uint64) { s.c[e] += n }

// Get returns the count of event e.
func (s *Set) Get(e Event) uint64 { return s.c[e] }

// Reset zeroes every counter.
func (s *Set) Reset() { s.c = [numEvents]uint64{} }

// Merge adds every counter of o into s.
func (s *Set) Merge(o *Set) {
	for i := range s.c {
		s.c[i] += o.c[i]
	}
}

// Clone returns an independent copy of s.
func (s *Set) Clone() *Set {
	out := &Set{}
	out.c = s.c
	return out
}

// OrNil returns s, or nil when s is nil or every count is zero: in a
// *Set field under omitempty, an all-zero set is left out of the
// encoding.
func (s *Set) OrNil() *Set {
	if s == nil || *s == (Set{}) {
		return nil
	}
	return s
}

// Delta returns s - base per event. Counts are monotonic, so a negative
// delta indicates misuse; Delta panics in that case.
func (s *Set) Delta(base *Set) *Set {
	out := &Set{}
	for i := range s.c {
		if s.c[i] < base.c[i] {
			panic(fmt.Sprintf("counters: negative delta for %s", Event(i)))
		}
		out.c[i] = s.c[i] - base.c[i]
	}
	return out
}

// String renders the non-zero counters, one per line, for debugging.
func (s *Set) String() string {
	var b strings.Builder
	for i, v := range s.c {
		if v != 0 {
			fmt.Fprintf(&b, "%-22s %d\n", Event(i), v)
		}
	}
	return b.String()
}

// Metrics holds the derived quantities reported in the paper's Figure 2 and
// Figure 4 panels for one run (or one program of a multi-program run).
type Metrics struct {
	L1MissRate     float64 // L1D misses / L1D accesses
	L2MissRate     float64 // L2 misses / L2 accesses
	TCMissRate     float64 // trace cache misses / fetches
	ITLBMissRate   float64 // ITLB misses / ITLB accesses
	DTLBMisses     float64 // DTLB load+store misses (absolute; normalized to serial by the caller)
	StalledPct     float64 // 100 * stall cycles / cycles
	BranchPredRate float64 // 100 * (1 - mispredicts / branches)
	PrefetchBusPct float64 // 100 * prefetch bus accesses / all bus accesses
	CPI            float64 // cycles / instructions retired
}

// Derive computes the Figure-2 metrics from a counter set.
func Derive(s *Set) Metrics {
	busAll := s.Get(BusDemandRead) + s.Get(BusRFO) + s.Get(BusWriteback) + s.Get(BusPrefetch)
	return Metrics{
		L1MissRate:     stats.Ratio(float64(s.Get(L1DMiss)), float64(s.Get(L1DAccess))),
		L2MissRate:     stats.Ratio(float64(s.Get(L2Miss)), float64(s.Get(L2Access))),
		TCMissRate:     stats.Ratio(float64(s.Get(TCMiss)), float64(s.Get(TCAccess))),
		ITLBMissRate:   stats.Ratio(float64(s.Get(ITLBMiss)), float64(s.Get(ITLBAccess))),
		DTLBMisses:     float64(s.Get(DTLBMiss)),
		StalledPct:     100 * stats.Ratio(float64(s.Get(StallCycles)), float64(s.Get(Cycles))),
		BranchPredRate: 100 * (1 - stats.Ratio(float64(s.Get(BranchMispredicted)), float64(s.Get(BranchRetired)))),
		PrefetchBusPct: 100 * stats.Ratio(float64(s.Get(BusPrefetch)), float64(busAll)),
		CPI:            stats.Ratio(float64(s.Get(Cycles)), float64(s.Get(Instructions))),
	}
}

// BusTransactions returns the total FSB transaction count in s.
func BusTransactions(s *Set) uint64 {
	return s.Get(BusDemandRead) + s.Get(BusRFO) + s.Get(BusWriteback) + s.Get(BusPrefetch)
}
