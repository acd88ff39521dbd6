// Package branch models the branch prediction unit of the simulated Xeon
// core: a gshare-style two-level direction predictor plus a branch target
// buffer. The paper lists the branch prediction unit among the resources
// shared by the two Hyper-Threaded contexts of a core; the model therefore
// keeps one predictor per core, so two threads with different branch
// behaviour alias in the pattern table and degrade each other — the
// mechanism behind the HT-on prediction-rate drops in Figures 2 and 4.
package branch

import (
	"fmt"

	"xeonomp/internal/units"
)

// Config describes one predictor.
type Config struct {
	PHTBits     uint // log2 of pattern-history-table entries
	HistoryBits uint // global-history register length, <= PHTBits
	BTBEntries  int  // branch target buffer entries (direct-mapped); power of two
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.PHTBits == 0 || c.PHTBits > 30 {
		return fmt.Errorf("branch: PHT bits %d out of range", c.PHTBits)
	}
	if c.HistoryBits > c.PHTBits {
		return fmt.Errorf("branch: history bits %d exceed PHT bits %d", c.HistoryBits, c.PHTBits)
	}
	if c.BTBEntries <= 0 || !units.IsPow2(int64(c.BTBEntries)) {
		return fmt.Errorf("branch: BTB entries %d not a positive power of two", c.BTBEntries)
	}
	return nil
}

// Predictor is one per-core branch prediction unit.
type Predictor struct {
	cfg     Config
	pht     []uint8 // 2-bit saturating counters
	history uint64  // shared global history (HT contexts interleave here)
	btb     []uint64
	phtMask uint64
	btbMask uint64
}

// New builds a predictor, panicking on invalid configuration.
func New(cfg Config) *Predictor {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	n := uint64(1) << cfg.PHTBits
	p := &Predictor{
		cfg:     cfg,
		pht:     make([]uint8, n),
		btb:     make([]uint64, cfg.BTBEntries),
		phtMask: n - 1,
		btbMask: uint64(cfg.BTBEntries) - 1,
	}
	// Initialize counters to weakly taken, the usual reset state.
	for i := range p.pht {
		p.pht[i] = 2
	}
	return p
}

// Config returns the predictor's configuration.
func (p *Predictor) Config() Config { return p.cfg }

func (p *Predictor) index(pc uint64) uint64 {
	histMask := (uint64(1) << p.cfg.HistoryBits) - 1
	return ((pc >> 2) ^ (p.history & histMask)) & p.phtMask
}

// Outcome reports a resolved branch.
type Outcome struct {
	Mispredicted bool
	BTBMiss      bool // target unknown at fetch (charged like a mispredict bubble for taken branches)
}

// nextCtr[taken][ctr] is a 2-bit saturating counter after an update:
// one step up for a taken branch, one step down for a not-taken one.
var nextCtr = [2][4]uint8{{0, 0, 1, 2}, {1, 2, 3, 3}}

// Resolve predicts the branch at pc, then updates the predictor with the
// actual direction (taken) and target. It returns whether the prediction
// was wrong and whether the BTB lacked the target.
//
// The direction of a simulated branch is random from the host's point of
// view, so the update does not branch on it: the counter moves through
// nextCtr, the history shifts taken in, and the BTB entry is rewritten
// with the target or its own value.
func (p *Predictor) Resolve(pc uint64, taken bool, target uint64) Outcome {
	idx := p.index(pc)
	ctr := p.pht[idx] & 3
	tk := b2u(taken)
	b := (pc >> 2) & p.btbMask
	old := p.btb[b]
	diff := (old ^ target) & -tk // the BTB change a taken branch makes; 0 when not taken
	p.btb[b] = old ^ diff
	p.pht[idx] = nextCtr[tk][ctr]
	p.history = p.history<<1 | tk
	return Outcome{Mispredicted: ctr>>1 != uint8(tk), BTBMiss: diff != 0}
}

// b2u is 1 for true and 0 for false; the compiler emits a zero-extension,
// not a branch.
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// Reset restores the power-on state.
func (p *Predictor) Reset() {
	for i := range p.pht {
		p.pht[i] = 2
	}
	for i := range p.btb {
		p.btb[i] = 0
	}
	p.history = 0
}
