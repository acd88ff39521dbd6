// Package tlb models the instruction and data translation lookaside buffers
// of the simulated Xeon core. A TLB is a small fully-associative (or
// set-associative) cache of page translations with true-LRU replacement.
// Both Hyper-Threaded contexts of a core share one ITLB and one DTLB, so
// enabling HT halves the effective per-thread reach — the mechanism behind
// the ITLB-miss growth the paper observes on the more complex architectures.
package tlb

import (
	"fmt"

	"xeonomp/internal/units"
)

// Config describes one TLB.
type Config struct {
	Name     string
	Entries  int   // total entries; must be a positive multiple of Assoc
	Assoc    int   // ways per set; Entries/Assoc must be a power of two
	PageSize int64 // bytes per page; must be a power of two
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Entries <= 0 || c.Assoc <= 0 || c.Entries%c.Assoc != 0 {
		return fmt.Errorf("tlb %s: bad geometry entries=%d assoc=%d", c.Name, c.Entries, c.Assoc)
	}
	if !units.IsPow2(int64(c.Entries / c.Assoc)) {
		return fmt.Errorf("tlb %s: set count %d not a power of two", c.Name, c.Entries/c.Assoc)
	}
	if c.PageSize <= 0 || !units.IsPow2(c.PageSize) {
		return fmt.Errorf("tlb %s: page size %d not a positive power of two", c.Name, c.PageSize)
	}
	return nil
}

// invalidVPN marks an empty entry. Virtual page numbers are addr>>pageShift
// with pageShift ≥ 12, so no reachable translation can collide with it.
const invalidVPN = ^uint64(0)

// TLB is one translation buffer. Entry state is structure-of-arrays with a
// sentinel VPN for empty slots, so the Access hot path scans one contiguous
// run of uint64s (a single hardware cache line for a 4-way set) with no
// separate validity check.
type TLB struct {
	cfg       Config
	vpns      []uint64 // invalidVPN when the slot is empty
	stamps    []uint64 // LRU: larger = more recent
	assoc     uint64
	numSets   uint64
	pageShift uint
	clock     uint64
}

// New builds a TLB from cfg, panicking on invalid configuration.
func New(cfg Config) *TLB {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	t := &TLB{
		cfg:       cfg,
		vpns:      make([]uint64, cfg.Entries),
		stamps:    make([]uint64, cfg.Entries),
		assoc:     uint64(cfg.Assoc),
		numSets:   uint64(cfg.Entries / cfg.Assoc),
		pageShift: units.Log2(cfg.PageSize),
	}
	for i := range t.vpns {
		t.vpns[i] = invalidVPN
	}
	return t
}

// Config returns the TLB's configuration.
func (t *TLB) Config() Config { return t.cfg }

// Page returns the virtual page number of addr.
func (t *TLB) Page(addr uint64) uint64 { return addr >> t.pageShift }

// setBase returns the index of the first way of vpn's set.
func (t *TLB) setBase(vpn uint64) uint64 {
	return (vpn & (t.numSets - 1)) * t.assoc
}

// Access translates addr: it returns true on a TLB hit. On a miss the
// translation is installed (the page walk itself is charged by the pipeline
// model), evicting the LRU entry of the set.
func (t *TLB) Access(addr uint64) bool {
	vpn := t.Page(addr)
	base := t.setBase(vpn)
	t.clock++
	vpns := t.vpns[base : base+t.assoc]
	for i := range vpns {
		if vpns[i] == vpn {
			t.stamps[base+uint64(i)] = t.clock
			return true
		}
	}
	victim := base
	for j := base; j < base+t.assoc; j++ {
		if t.vpns[j] == invalidVPN {
			victim = j
			break
		}
		if t.stamps[j] < t.stamps[victim] {
			victim = j
		}
	}
	t.vpns[victim] = vpn
	t.stamps[victim] = t.clock
	return false
}

// Probe reports whether the translation for addr is resident, without
// altering state.
func (t *TLB) Probe(addr uint64) bool {
	vpn := t.Page(addr)
	base := t.setBase(vpn)
	vpns := t.vpns[base : base+t.assoc]
	for i := range vpns {
		if vpns[i] == vpn {
			return true
		}
	}
	return false
}

// Flush invalidates all entries (e.g. on a simulated context switch with
// address-space change). The LRU stamp clock keeps ticking; use Reset to
// return to power-on state.
func (t *TLB) Flush() {
	for i := range t.vpns {
		t.vpns[i] = invalidVPN
		t.stamps[i] = 0
	}
}

// Reset restores power-on state: all entries invalid and the LRU stamp
// clock rewound, so a recycled TLB is indistinguishable from a fresh one.
func (t *TLB) Reset() {
	t.Flush()
	t.clock = 0
}

// Valid returns the number of valid entries.
func (t *TLB) Valid() int {
	n := 0
	for _, v := range t.vpns {
		if v != invalidVPN {
			n++
		}
	}
	return n
}
