// Package cache implements the set-associative cache model used for every
// cache-like structure in the simulated Xeon: the per-core execution trace
// cache, the 16 KB shared L1 data cache, and the private 1 MB L2. Caches are
// write-allocate and write-back, with true-LRU replacement within a set.
//
// The model is functional, not timed: Lookup and Fill report hits, misses,
// and evictions, and the pipeline model (internal/cpu) charges the latency.
// Because both Hyper-Threaded contexts of a core share the same Cache
// instance, the capacity contention the paper attributes to HT emerges
// directly from interleaved fills.
package cache

import (
	"fmt"

	"xeonomp/internal/units"
)

// Replacement selects the victim policy within a set.
type Replacement int

// Replacement policies.
const (
	// LRU is true least-recently-used, the model's default. Its cyclic-scan
	// pathology (a loop over slightly-more-than-capacity misses every time)
	// is part of the Hyper-Threading contention story.
	LRU Replacement = iota
	// Random picks a pseudo-random victim; kept for ablations, since it
	// degrades gracefully where LRU falls off a cliff.
	Random
)

// String names the policy.
func (r Replacement) String() string {
	switch r {
	case LRU:
		return "lru"
	case Random:
		return "random"
	default:
		return fmt.Sprintf("replacement(%d)", int(r))
	}
}

// Config describes one cache.
type Config struct {
	Name     string // for error messages and reports
	Size     int64  // total capacity in bytes; must be a power of two
	LineSize int64  // line size in bytes; must be a power of two
	Assoc    int    // ways per set; Size/LineSize must be divisible by Assoc
	// Policy selects the replacement policy (default LRU).
	Policy Replacement
}

// Validate checks the configuration for internal consistency.
func (c Config) Validate() error {
	if c.Size <= 0 || !units.IsPow2(c.Size) {
		return fmt.Errorf("cache %s: size %d not a positive power of two", c.Name, c.Size)
	}
	if c.LineSize <= 0 || !units.IsPow2(c.LineSize) {
		return fmt.Errorf("cache %s: line size %d not a positive power of two", c.Name, c.LineSize)
	}
	if c.LineSize > c.Size {
		return fmt.Errorf("cache %s: line size %d exceeds size %d", c.Name, c.LineSize, c.Size)
	}
	lines := c.Size / c.LineSize
	if c.Assoc <= 0 || lines%int64(c.Assoc) != 0 {
		return fmt.Errorf("cache %s: associativity %d does not divide %d lines", c.Name, c.Assoc, lines)
	}
	if !units.IsPow2(lines / int64(c.Assoc)) {
		return fmt.Errorf("cache %s: set count %d not a power of two", c.Name, lines/int64(c.Assoc))
	}
	if c.Policy != LRU && c.Policy != Random {
		return fmt.Errorf("cache %s: unknown replacement policy %v", c.Name, c.Policy)
	}
	return nil
}

// Per-way state bits, kept in the flags array. Validity is not a flag:
// empty ways hold invalidTag, so the hot tag scan needs no second load.
const (
	fDirty      uint8 = 1 << iota
	fPrefetched       // filled by the hardware prefetcher, not yet demanded
)

// invalidTag marks an empty way. Tags are addr>>lineShift with
// lineShift ≥ 5, so no reachable address can produce it.
const invalidTag = ^uint64(0)

// Cache is one set-associative cache instance. Line state is kept
// structure-of-arrays, set-major: the tag scan on the Lookup hot path then
// walks one contiguous run of uint64s (a single hardware cache line for an
// 8-way set) instead of striding through an array of structs, and the
// sentinel tag for empty ways keeps the scan to that single array.
type Cache struct {
	cfg       Config
	tags      []uint64 // numSets * assoc; invalidTag when the way is empty
	stamps    []uint64 // LRU timestamps: larger = more recent
	flags     []uint8  // fDirty | fPrefetched
	assoc     uint64
	numSets   uint64
	lineShift uint
	setMask   uint64
	clock     uint64 // LRU stamp source
	rand      uint64 // LCG state for Random replacement
}

// New builds a cache from cfg. It panics on an invalid configuration, since
// configurations are compile-time constants of the machine model.
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	numSets := uint64(cfg.Size / cfg.LineSize / int64(cfg.Assoc))
	n := numSets * uint64(cfg.Assoc)
	c := &Cache{
		cfg:       cfg,
		tags:      make([]uint64, n),
		stamps:    make([]uint64, n),
		flags:     make([]uint8, n),
		assoc:     uint64(cfg.Assoc),
		numSets:   numSets,
		lineShift: units.Log2(cfg.LineSize),
		setMask:   numSets - 1,
	}
	for i := range c.tags {
		c.tags[i] = invalidTag
	}
	return c
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// NumSets returns the number of sets.
func (c *Cache) NumSets() int { return int(c.numSets) }

// LineAddr returns the line-aligned address containing addr.
//
//xeonlint:hot >=1% flat in cmd/xeonchar/default.pgo
func (c *Cache) LineAddr(addr uint64) uint64 {
	return addr >> c.lineShift << c.lineShift
}

// setBase returns the index of the first way of addr's set.
func (c *Cache) setBase(addr uint64) uint64 {
	return ((addr >> c.lineShift) & c.setMask) * c.assoc
}

// LookupResult reports the outcome of a demand access.
type LookupResult struct {
	Hit           bool
	HitPrefetched bool // hit on a line brought in by the prefetcher (first demand touch)
	WasDirty      bool // the line was already dirty before this access (hits only)
}

// Lookup performs a demand access to addr. On a hit the line's LRU stamp is
// refreshed and, for a write, the line is marked dirty. On a miss the cache
// is unchanged; the caller is expected to resolve the miss and then Fill.
//
//xeonlint:hot >=1% flat in cmd/xeonchar/default.pgo
func (c *Cache) Lookup(addr uint64, write bool) LookupResult {
	tag := addr >> c.lineShift
	base := c.setBase(addr)
	c.clock++
	tags := c.tags[base : base+c.assoc]
	for i := range tags {
		if tags[i] == tag {
			j := base + uint64(i)
			f := c.flags[j]
			c.stamps[j] = c.clock
			hp := f&fPrefetched != 0
			wd := f&fDirty != 0
			f &^= fPrefetched
			if write {
				f |= fDirty
			}
			c.flags[j] = f
			return LookupResult{Hit: true, HitPrefetched: hp, WasDirty: wd}
		}
	}
	return LookupResult{}
}

// Probe reports whether addr is present without touching LRU state.
func (c *Cache) Probe(addr uint64) bool {
	tag := addr >> c.lineShift
	base := c.setBase(addr)
	tags := c.tags[base : base+c.assoc]
	for i := range tags {
		if tags[i] == tag {
			return true
		}
	}
	return false
}

// FillResult reports what a Fill displaced.
type FillResult struct {
	Evicted      bool
	EvictedDirty bool
	EvictedAddr  uint64 // line address of the victim, valid when Evicted
}

// Fill installs the line containing addr, evicting the LRU way if the set is
// full. write marks the new line dirty; prefetch marks it as a speculative
// fill. Filling a line that is already present refreshes it in place (and
// upgrades dirtiness) without eviction.
//
//xeonlint:hot >=1% flat in cmd/xeonchar/default.pgo
func (c *Cache) Fill(addr uint64, write, prefetch bool) FillResult {
	tag := addr >> c.lineShift
	base := c.setBase(addr)
	c.clock++

	// Already present: refresh. A demand fill clears the prefetched mark.
	for j := base; j < base+c.assoc; j++ {
		if c.tags[j] == tag {
			c.stamps[j] = c.clock
			if write {
				c.flags[j] |= fDirty
			}
			if !prefetch {
				c.flags[j] &^= fPrefetched
			}
			return FillResult{}
		}
	}

	// Choose victim: an invalid way if any, else per the policy.
	victim := uint64(0)
	found := false
	for j := base; j < base+c.assoc; j++ {
		if c.tags[j] == invalidTag {
			victim = j
			found = true
			break
		}
	}
	if !found {
		switch c.cfg.Policy {
		case Random:
			c.rand = c.rand*6364136223846793005 + 1442695040888963407
			victim = base + (c.rand>>33)%c.assoc
		default: // LRU
			victim = base
			for j := base + 1; j < base+c.assoc; j++ {
				if c.stamps[j] < c.stamps[victim] {
					victim = j
				}
			}
		}
	}
	res := FillResult{}
	if c.tags[victim] != invalidTag {
		res.Evicted = true
		res.EvictedDirty = c.flags[victim]&fDirty != 0
		res.EvictedAddr = c.tags[victim] << c.lineShift
	}
	c.tags[victim] = tag
	c.stamps[victim] = c.clock
	f := uint8(0)
	if write {
		f |= fDirty
	}
	if prefetch {
		f |= fPrefetched
	}
	c.flags[victim] = f
	return res
}

// Invalidate removes the line containing addr if present, reporting whether
// it was present and dirty.
func (c *Cache) Invalidate(addr uint64) (present, dirty bool) {
	tag := addr >> c.lineShift
	base := c.setBase(addr)
	tags := c.tags[base : base+c.assoc]
	for i := range tags {
		if tags[i] == tag {
			j := base + uint64(i)
			present, dirty = true, c.flags[j]&fDirty != 0
			c.tags[j] = invalidTag
			c.stamps[j] = 0
			c.flags[j] = 0
			return
		}
	}
	return
}

// Flush invalidates every line. The LRU stamp clock and the Random-policy
// RNG keep ticking: a flushed cache mid-experiment is empty but not
// "new". Use Reset to return to power-on state.
func (c *Cache) Flush() {
	for i := range c.flags {
		c.tags[i] = invalidTag
		c.stamps[i] = 0
		c.flags[i] = 0
	}
}

// Reset restores power-on state: all lines invalid AND the internal LRU
// stamp clock and Random-replacement RNG rewound to zero, so a recycled
// Cache behaves bit-for-bit like one freshly built by New. Machine pooling
// depends on this distinction — Flush alone would leave the Random policy's
// victim sequence mid-stream.
func (c *Cache) Reset() {
	c.Flush()
	c.clock = 0
	c.rand = 0
}

// ValidLines returns the number of valid lines, for tests and occupancy
// reporting.
func (c *Cache) ValidLines() int {
	n := 0
	for _, t := range c.tags {
		if t != invalidTag {
			n++
		}
	}
	return n
}
