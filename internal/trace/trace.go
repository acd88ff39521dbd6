// Package trace generates the deterministic synthetic instruction streams
// that drive the timing simulator. A Generator is parameterized by a Params
// value (produced from a benchmark profile, see internal/profiles) and emits
// a sequence of compute, load, store, branch and barrier records for one
// application thread.
//
// The streams encode the structural properties that determine the paper's
// counter metrics: a hot set that keeps most accesses L1-resident (the
// paper's "large amount of infrequently changing variables"), streaming and
// strided traversals over the thread's partition of the shared working set
// (prefetchable L2/bus traffic), random accesses (unprefetchable misses),
// loop-back branches (predictable) vs. data-dependent branches
// (unpredictable), a hot code loop plus occasional cold jumps (trace cache
// and ITLB pressure), and barrier-delimited parallel chunks with bounded
// imbalance.
package trace

import (
	"fmt"
	"math"
	"math/bits"

	"xeonomp/internal/mem"
)

// Kind classifies one emitted record.
type Kind uint8

// Record kinds.
const (
	Compute Kind = iota // one ALU/FPU micro-op
	Load
	Store
	Branch
	Barrier // end of a parallel chunk; the context must synchronize with its team
	End     // the stream is exhausted (NextKind only; Next returns false instead)
)

// String names the record kind.
func (k Kind) String() string {
	switch k {
	case Compute:
		return "compute"
	case Load:
		return "load"
	case Store:
		return "store"
	case Branch:
		return "branch"
	case Barrier:
		return "barrier"
	case End:
		return "end"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Instr is one record of the stream.
type Instr struct {
	Kind   Kind
	PC     uint64 // instruction address (all kinds except Barrier)
	Addr   uint64 // effective address for Load/Store
	Taken  bool   // Branch direction
	Target uint64 // Branch target when taken
}

// Params controls stream synthesis for one benchmark. All *Frac fields are
// fractions in [0,1]; the instruction-mix fractions must sum to at most 1
// (the remainder is Compute) and the pattern fractions are normalized over
// Hot/Seq/Stride/Rand.
type Params struct {
	// Instruction mix.
	LoadFrac   float64
	StoreFrac  float64
	BranchFrac float64

	// Memory access pattern mix (over loads+stores).
	HotFrac    float64 // small per-thread hot set, mostly L1-resident
	WarmFrac   float64 // medium per-thread set scanned cyclically; L2-resident when a thread has the L2 to itself
	SeqFrac    float64 // 8-byte unit-stride streaming over the partition
	StrideFrac float64 // fixed-stride traversal
	RandFrac   float64 // uniform random over the partition

	HotBytes    uint64  // hot set size per thread
	WarmBytes   uint64  // warm scan range per thread
	WarmStride  uint64  // warm scan step; default 192 (3 lines, beyond the prefetcher's reach)
	StrideBytes uint64  // stride for the strided pattern
	SharedFrac  float64 // fraction of streaming/random accesses hitting the shared region (vs. private)

	// Branch behaviour. Data-dependent branches follow a repeating 64-bit
	// outcome pattern — learnable by a global-history predictor when one
	// thread runs alone, but destroyed when two contexts interleave in a
	// shared history register — with DataEntropy of truly random flips.
	LoopLen        int     // instructions per inner-loop body (one loop-back branch each)
	DataBranchFrac float64 // fraction of branches that are data-dependent
	DataPattern    uint64  // repeating outcome pattern for data-dependent branches
	DataEntropy    float64 // probability a data-dependent outcome is flipped randomly

	// Code behaviour.
	CodeHotBytes uint64  // hot code loop footprint
	CodeJumpProb float64 // probability an instruction jumps somewhere cold in the code region

	// Parallel structure.
	ChunkInstr   int64   // instructions between barriers (per thread)
	ImbalancePct float64 // ± relative jitter of chunk length across threads

	// MLP is the fraction of an L2-miss latency hidden by overlapping
	// independent misses; consumed by the pipeline model, carried here so a
	// profile fully describes a workload's timing behaviour.
	MLP float64

	// DepProb is the probability that an instruction ends its context's
	// issue group for the cycle (a data-dependency bubble). It sets the
	// workload's inherent ILP and hence its compute-bound CPI floor; also
	// consumed by the pipeline model.
	DepProb float64
}

// Validate performs sanity checks on the parameters.
func (p Params) Validate() error {
	sumMix := p.LoadFrac + p.StoreFrac + p.BranchFrac
	if p.LoadFrac < 0 || p.StoreFrac < 0 || p.BranchFrac < 0 || sumMix > 1.0001 {
		return fmt.Errorf("trace: instruction mix fractions invalid (sum %.3f)", sumMix)
	}
	if p.HotFrac < 0 || p.WarmFrac < 0 || p.SeqFrac < 0 || p.StrideFrac < 0 || p.RandFrac < 0 {
		return fmt.Errorf("trace: negative pattern fraction")
	}
	if p.HotFrac+p.WarmFrac+p.SeqFrac+p.StrideFrac+p.RandFrac <= 0 {
		return fmt.Errorf("trace: pattern fractions all zero")
	}
	if p.SharedFrac < 0 || p.SharedFrac > 1 {
		return fmt.Errorf("trace: shared fraction %.3f", p.SharedFrac)
	}
	if p.LoopLen <= 1 {
		return fmt.Errorf("trace: loop length %d", p.LoopLen)
	}
	if p.ChunkInstr <= 0 {
		return fmt.Errorf("trace: chunk length %d", p.ChunkInstr)
	}
	if p.MLP < 0 || p.MLP >= 1 {
		return fmt.Errorf("trace: MLP %.3f out of [0,1)", p.MLP)
	}
	if p.DepProb < 0 || p.DepProb > 1 {
		return fmt.Errorf("trace: DepProb %.3f out of [0,1]", p.DepProb)
	}
	if p.DataEntropy < 0 || p.DataEntropy > 1 || p.DataBranchFrac < 0 || p.DataBranchFrac > 1 {
		return fmt.Errorf("trace: branch probabilities out of range")
	}
	if p.CodeJumpProb < 0 || p.CodeJumpProb > 1 {
		return fmt.Errorf("trace: code jump probability out of range")
	}
	return nil
}

// rng is a SplitMix64 generator: deterministic, seedable, and cheap.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a uniform float64 in [0,1).
func (r *rng) float() float64 {
	return float64(r.next()>>11) / (1 << 53)
}

// bits returns the raw 53-bit draw behind float(). Comparing it against a
// threshold(p) value is exactly equivalent to float() < p without the
// integer→float conversion — worth it on draws made once per instruction.
func (r *rng) bits() uint64 {
	return r.next() >> 11
}

// b2u is 1 for true and 0 for false, without a branch.
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// threshold converts probability p to the integer bound q with
// float() < p ⟺ bits() < q. The division in float() is exact (power of
// two), so the comparison holds iff the draw is below ⌈p·2^53⌉; for
// integral p·2^53 the strict compare makes the same bound right.
func threshold(p float64) uint64 {
	return uint64(math.Ceil(p * (1 << 53)))
}

// divisor precomputes an exact remainder-by-constant: rem(x) == x%n for
// every x, via two multiplies (round-up reciprocal with one fixup step)
// instead of a hardware divide — the divide was the single most expensive
// instruction on the address-generation path. Divisors outside [2, 2^63)
// (never produced by real layouts) take the plain % path, so the identity
// holds unconditionally.
type divisor struct {
	n     uint64
	magic uint64 // ⌈2^64/n⌉; 0 selects the fallback path
}

func newDivisor(n uint64) divisor {
	d := divisor{n: n}
	if n >= 2 && n < 1<<63 {
		d.magic = ^uint64(0)/n + 1
	}
	return d
}

// rem returns x % d.n. With magic set, q = ⌊x·⌈2^64/n⌉ / 2^64⌋ is either
// the true quotient or one above it; in the latter case the subtraction
// wraps to [2^64-n, 2^64), disjoint from true remainders for n < 2^63, so
// one wrapping add of n restores exactness.
func (d divisor) rem(x uint64) uint64 {
	if d.magic == 0 {
		if d.n <= 1 {
			return 0
		}
		return x % d.n
	}
	q, _ := bits.Mul64(d.magic, x)
	r := x - q*d.n
	if r >= d.n {
		r += d.n
	}
	return r
}

// Program is what the threads of one program share: the parameters, the
// address-space layout, the instruction budget and seed of each thread,
// and the site table that classifies every 4-byte slot of the code region.
// Instruction kinds are a pure function of the PC (see pcMix), so the
// table is computed once per program and the per-instruction
// classification is one load.
type Program struct {
	p      Params
	layout *mem.Layout
	budget int64
	seed   uint64
	sites  []uint8 // one site code per 4-byte slot of layout.Code
}

// Site codes: the record kind of an instruction slot, with siteData set on
// a data-dependent branch site. siteLoop marks the current record as a
// loop-back branch, a role of the slot's position in its window rather
// than of the slot itself.
const (
	siteKindMask = 0x7
	siteData     = 0x8
	siteLoop     = 0x10
)

// NewProgram prepares the streams of a program with the given layout:
// each thread retires budget instructions, and seed makes distinct
// programs (and repeated trials) reproducible.
func NewProgram(p Params, layout *mem.Layout, budget int64, seed uint64) (*Program, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if budget <= 0 {
		return nil, fmt.Errorf("trace: budget %d", budget)
	}
	if win := uint64(p.LoopLen) * 4; layout.Code.Size < win {
		return nil, fmt.Errorf("trace: code region of %d bytes is shorter than one %d-byte loop window", layout.Code.Size, win)
	}
	pr := &Program{p: p, layout: layout, budget: budget, seed: seed}
	// Kinds by pcMix band: Load below LoadFrac, then Store, then Branch,
	// the rest Compute; a branch site is data-dependent when a second hash
	// of its PC falls below DataBranchFrac. The bands compare in the
	// integer domain (see threshold), which decides exactly as the float
	// compares would, and the band is the count of bounds above the hash:
	// kinds are random from slot to slot, and a switch on them would
	// mispredict on most slots.
	loadT := threshold(p.LoadFrac)
	storeT := threshold(p.LoadFrac + p.StoreFrac)
	branchT := threshold(p.LoadFrac + p.StoreFrac + p.BranchFrac)
	dataT := threshold(p.DataBranchFrac)
	bands := [4]uint8{uint8(Compute), uint8(Branch), uint8(Store), uint8(Load)}
	pr.sites = make([]uint8, (layout.Code.Size+3)/4)
	for i := range pr.sites {
		pc := layout.Code.Base + uint64(i)*4
		r := pcMix(pc)
		k := bands[(b2u(r < loadT)+b2u(r < storeT)+b2u(r < branchT))&3]
		if k == uint8(Branch) && pcMix(pc^0xabcd1234) < dataT {
			k |= siteData
		}
		pr.sites[i] = k
	}
	return pr, nil
}

// Generator produces one thread's stream.
//
// The stream is read one record at a time: NextKind advances it and
// returns the record's kind and PC, then the record's operands are drawn
// in its turn — Addr once for a Load or Store, Branch once for a Branch —
// before the next NextKind. The operands come from the generator's private
// RNG, so the draw order is that of the records however the caller
// interleaves its own work. Next reads a whole record through the same
// primitives.
type Generator struct {
	p      Params
	layout *mem.Layout
	budget int64 // remaining instructions (barriers excluded)
	rng    rng

	// Pattern cursors.
	pc           uint64
	sharedPart   mem.Region // this thread's partition of the shared region
	privStream   mem.Region // private region above the hot+warm sets
	warmRegion   mem.Region
	warmCursor   uint64
	seqShared    uint64
	seqPriv      uint64
	strideShared uint64
	stridePriv   uint64

	// Code-walk state: execution cycles through fixed windows of LoopLen
	// instructions inside the hot code region; the last slot of a window
	// is its loop-back branch. Cold jumps are straight-line excursions
	// into the rest of the code region.
	winBase     uint64
	loopIter    uint64
	coldLeft    int    // instructions left in a cold excursion
	coldResume  uint64 // hot pc to resume after the excursion
	chunksLeft  int64  // parallel chunks (barrier intervals) still to run
	effChunk    int64  // effective chunk length (budget / chunk count)
	chunkLeft   int64  // instructions left in the current chunk
	pendBarrier bool
	dataBranchN uint64

	// The current record: its site code (siteLoop for a loop-back branch)
	// and PC, for Branch.
	site uint8
	cur  uint64

	// Normalized pattern thresholds.
	hotT, warmT, seqT, strideT float64

	// Hot-path caches, all pure functions of construction-time state (they
	// consume no RNG, so the emitted stream is byte-identical with or
	// without them).
	sites    []uint8    // the program's site table (Program.sites)
	codeBase uint64     // layout.Code.Base
	win      uint64     // loop window in bytes, LoopLen*4
	hotN     uint64     // hotSpan(), computed once
	coldSpan uint64     // code bytes above the hot span
	canJump  bool       // the cold-excursion draw in NextKind is live
	priv     mem.Region // layout.Private[tid]
	hotB     uint64     // hot-set size clamped to the private region

	// Exact-remainder reciprocals for the three variable moduli on the
	// address/jump generation paths (see divisor).
	hotDiv, shDiv, pvDiv, coldDiv divisor

	// Integer-domain probability bounds for the per-instruction draws
	// (see threshold): same RNG consumption, same outcomes, no
	// integer→float conversion per draw.
	hotTi, warmTi, seqTi, strideTi uint64
	sharedTi, jumpTi, entropyTi    uint64
}

// biasTi is threshold(0.96), the structured-branch taken bias.
var biasTi = threshold(0.96)

// NewGenerator builds the stream generator for thread tid of a program with
// the given layout: NewProgram and Thread in one call, for a thread that
// shares no site table.
func NewGenerator(p Params, layout *mem.Layout, tid int, budget int64, seed uint64) (*Generator, error) {
	pr, err := NewProgram(p, layout, budget, seed)
	if err != nil {
		return nil, err
	}
	return pr.Thread(tid)
}

// Thread builds the stream generator for thread tid of the program.
func (pr *Program) Thread(tid int) (*Generator, error) {
	p, layout, budget := pr.p, pr.layout, pr.budget
	if tid < 0 || tid >= layout.Threads() {
		return nil, fmt.Errorf("trace: tid %d outside layout with %d threads", tid, layout.Threads())
	}
	total := p.HotFrac + p.WarmFrac + p.SeqFrac + p.StrideFrac + p.RandFrac
	g := &Generator{
		p:        p,
		layout:   layout,
		budget:   budget,
		rng:      rng{s: pr.seed ^ (uint64(tid)+1)*0xa0761d6478bd642f},
		pc:       layout.Code.Base,
		hotT:     p.HotFrac / total,
		warmT:    (p.HotFrac + p.WarmFrac) / total,
		seqT:     (p.HotFrac + p.WarmFrac + p.SeqFrac) / total,
		strideT:  (p.HotFrac + p.WarmFrac + p.SeqFrac + p.StrideFrac) / total,
		sites:    pr.sites,
		codeBase: layout.Code.Base,
		win:      uint64(p.LoopLen) * 4,
	}
	g.winBase = layout.Code.Base
	// Static partition of the shared region, mirroring an OpenMP static
	// schedule: thread t owns the t-th contiguous slice.
	n := uint64(layout.Threads())
	part := layout.Shared.Size / n
	if part < 64 {
		part = layout.Shared.Size // degenerate tiny region: everyone shares it all
		g.sharedPart = layout.Shared
	} else {
		g.sharedPart = mem.Region{Base: layout.Shared.Base + uint64(tid)*part, Size: part}
	}
	g.seqShared = g.sharedPart.Base
	g.strideShared = g.sharedPart.Base
	// Private streaming happens above the hot and warm sets so it does not
	// continuously evict them.
	priv := layout.Private[tid]
	wb := p.WarmBytes
	if p.HotBytes+wb > priv.Size {
		wb = 0
	}
	g.warmRegion = mem.Region{Base: priv.Base + p.HotBytes, Size: wb}
	if wb == 0 {
		g.warmRegion = priv
	}
	g.warmCursor = g.warmRegion.Base
	off := p.HotBytes + wb
	if off+4096 > priv.Size {
		off = 0
	}
	g.privStream = mem.Region{Base: priv.Base + off, Size: priv.Size - off}
	g.seqPriv = g.privStream.Base
	g.stridePriv = g.privStream.Base

	// Equal chunk COUNT across the team (every thread of a team gets the
	// same budget and ChunkInstr, so the same count): OpenMP threads all
	// pass the same barriers. The chunk count is rounded so the emitted
	// total tracks the budget, and jitter affects only chunk length.
	g.chunksLeft = (budget + p.ChunkInstr/2) / p.ChunkInstr
	if g.chunksLeft < 1 {
		g.chunksLeft = 1
	}
	g.effChunk = budget / g.chunksLeft
	if g.effChunk < 1 {
		g.effChunk = 1
	}
	g.hotN = g.hotSpan()
	g.coldSpan = layout.Code.Size - g.hotN
	g.canJump = g.coldSpan >= uint64(p.LoopLen)*4 && p.CodeJumpProb > 0
	g.priv = layout.Private[tid]
	g.hotB = p.HotBytes
	if g.hotB == 0 || g.hotB > g.priv.Size {
		g.hotB = g.priv.Size
	}
	g.hotTi = threshold(g.hotT)
	g.warmTi = threshold(g.warmT)
	g.seqTi = threshold(g.seqT)
	g.strideTi = threshold(g.strideT)
	g.sharedTi = threshold(p.SharedFrac)
	g.jumpTi = threshold(p.CodeJumpProb)
	g.entropyTi = threshold(p.DataEntropy)
	g.hotDiv = newDivisor(g.hotB)
	g.shDiv = newDivisor(g.sharedPart.Size)
	g.pvDiv = newDivisor(g.privStream.Size)
	if g.canJump {
		g.coldDiv = newDivisor(g.coldSpan - uint64(p.LoopLen)*4 + 4)
	}
	g.startChunk()
	return g, nil
}

// Params returns the generator's parameters.
func (g *Generator) Params() Params { return g.p }

// Remaining returns the instruction budget left.
func (g *Generator) Remaining() int64 { return g.budget }

func (g *Generator) startChunk() {
	jit := 1.0
	if g.p.ImbalancePct > 0 {
		jit = 1 + g.p.ImbalancePct*(2*g.rng.float()-1)
	}
	g.chunkLeft = int64(float64(g.effChunk) * jit)
	if g.chunkLeft < 1 {
		g.chunkLeft = 1
	}
}

// pcMix deterministically maps an instruction address to a uniform 53-bit
// value, compared against threshold bounds as rng.bits is. Instruction
// kinds are a pure function of the PC, as in real code: a given
// instruction is always a load, always a branch, and so on. This is what
// lets a global-history branch predictor learn the stream — the branch
// sites repeat every pass over the code loop.
func pcMix(pc uint64) uint64 {
	z := pc * 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return z >> 11
}

// advance moves a cursor by step within region r, wrapping at the end.
func advance(cur uint64, step uint64, r mem.Region) uint64 {
	next := cur + step
	if next >= r.End() {
		return r.Base + (next-r.Base)%r.Size
	}
	return next
}

// Addr draws the effective address of the current record, a Load or a
// Store: call it once per such record, after its NextKind.
func (g *Generator) Addr() uint64 {
	r := g.rng.bits()
	switch {
	case r < g.hotTi:
		// Hot set at the base of the private region.
		return g.priv.Base + g.hotDiv.rem(g.rng.next())&^7
	case r < g.warmTi:
		// Warm set just above the hot set: a cyclic strided scan, so its
		// reuse distance is its footprint and it stays L2-resident exactly
		// when one thread owns the L2.
		step := g.p.WarmStride
		if step == 0 {
			step = 192
		}
		g.warmCursor = advance(g.warmCursor, step, g.warmRegion)
		return g.warmCursor
	case r < g.seqTi:
		if g.rng.bits() < g.sharedTi {
			g.seqShared = advance(g.seqShared, 8, g.sharedPart)
			return g.seqShared
		}
		g.seqPriv = advance(g.seqPriv, 8, g.privStream)
		return g.seqPriv
	case r < g.strideTi:
		step := g.p.StrideBytes
		if step == 0 {
			step = 64
		}
		if g.rng.bits() < g.sharedTi {
			g.strideShared = advance(g.strideShared, step, g.sharedPart)
			return g.strideShared
		}
		g.stridePriv = advance(g.stridePriv, step, g.privStream)
		return g.stridePriv
	default:
		if g.rng.bits() < g.sharedTi {
			return g.sharedPart.Base + g.shDiv.rem(g.rng.next())&^7
		}
		return g.privStream.Base + g.pvDiv.rem(g.rng.next())&^7
	}
}

// hotSpan returns the byte length of the hot code area, clamped to the code
// region and to at least one loop window.
func (g *Generator) hotSpan() uint64 {
	hot := g.p.CodeHotBytes
	if hot == 0 || hot > g.layout.Code.Size {
		hot = g.layout.Code.Size
	}
	win := uint64(g.p.LoopLen) * 4
	if hot < win {
		hot = win
	}
	return hot
}

// at returns the kind and PC of the instruction at pc from the site
// table, and makes it the current record.
func (g *Generator) at(pc uint64) (Kind, uint64) {
	st := g.sites[(pc-g.codeBase)>>2]
	g.site, g.cur = st, pc
	return Kind(st & siteKindMask), pc
}

// Branch resolves the current record, a Branch: call it once per such
// record, after its NextKind. A loop-back branch is taken except when it
// completes an outer trip of 64 iterations, and targets its window's base.
// A data-dependent branch follows the repeating DataPattern with
// DataEntropy of random flips; any other branch is taken with probability
// 0.96. Both of those target pc+16.
func (g *Generator) Branch() (taken bool, target uint64) {
	switch g.site {
	case siteLoop:
		return g.loopIter%64 != 0, g.winBase
	case uint8(Branch) | siteData:
		pat := g.p.DataPattern
		if pat == 0 {
			pat = 0xb6db6db6db6db6db // period-3 "110" pattern
		}
		taken = pat>>(g.dataBranchN%64)&1 == 1
		g.dataBranchN++
		if g.p.DataEntropy > 0 && g.rng.bits() < g.entropyTi {
			taken = g.rng.bits() < 1<<52 // fair coin
		}
		return taken, g.cur + 16
	default:
		// Structured non-loop branch: strongly biased taken.
		return g.rng.bits() < biasTi, g.cur + 16
	}
}

// ForWarmLines calls visit with each line-aligned address of the thread's
// warm-scan footprint, in scan order, once per line. The machine model
// uses it to pre-establish steady-state cache contents before measurement.
func (g *Generator) ForWarmLines(visit func(line uint64)) {
	if g.p.WarmFrac <= 0 {
		return
	}
	step := g.p.WarmStride
	if step == 0 {
		step = 192
	}
	// cur rises by step > 0, so line never decreases and a repeated line
	// can only follow itself. No line address is odd, so last starts at
	// one that no line matches.
	last := ^uint64(0)
	for cur := g.warmRegion.Base; cur < g.warmRegion.End(); cur += step {
		if line := cur &^ 63; line != last {
			visit(line)
			last = line
		}
	}
}

// ForHotLines calls visit with each line-aligned address of the thread's
// hot set, in ascending order.
func (g *Generator) ForHotLines(visit func(line uint64)) {
	if g.p.HotFrac <= 0 || g.p.HotBytes == 0 {
		return
	}
	for cur := g.priv.Base; cur < g.priv.Base+g.hotB; cur += 64 {
		visit(cur &^ 63)
	}
}

// NextKind advances the stream by one record and returns its kind and PC.
// The stream is a fixed number of barrier-terminated chunks; after the
// final barrier NextKind returns End forever. Barrier records carry no PC
// and do not consume budget.
func (g *Generator) NextKind() (Kind, uint64) {
	if g.pendBarrier {
		g.pendBarrier = false
		g.chunksLeft--
		if g.chunksLeft > 0 {
			g.startChunk()
		}
		return Barrier, 0
	}
	if g.chunksLeft <= 0 {
		return End, 0
	}
	if g.chunkLeft <= 0 {
		// Shouldn't happen (chunks start positive), but terminate cleanly.
		g.pendBarrier = true
		return g.NextKind()
	}
	g.budget--
	g.chunkLeft--
	if g.chunkLeft == 0 {
		g.pendBarrier = true
	}

	// Cold excursion in progress: straight-line walk, no loop-backs.
	pc := g.pc
	if g.coldLeft > 0 {
		g.coldLeft--
		if g.coldLeft == 0 {
			g.pc = g.coldResume
		} else {
			g.pc += 4
		}
		return g.at(pc)
	}

	// Occasionally leave the hot loops for outer/bookkeeping code in the
	// cold part of the code region, above the hot span (trace cache and
	// ITLB pressure). Cold code is straight-line and never overlaps the
	// hot loop tiles, so every PC keeps a single role.
	if g.canJump && g.rng.bits() < g.jumpTi {
		g.coldResume = pc
		pc = g.codeBase + g.hotN + g.coldDiv.rem(g.rng.next())&^3
		g.coldLeft = g.p.LoopLen - 1
		g.pc = pc + 4
		return g.at(pc)
	}

	// Hot loop window: the last slot is the loop-back branch, taken except
	// when the iteration counter completes an outer trip of 64, at which
	// point execution advances to the next window of the hot region.
	if pc >= g.winBase+g.win-4 {
		g.loopIter++
		if g.loopIter%64 != 0 {
			g.pc = g.winBase
		} else {
			nb := g.winBase + g.win
			if nb+g.win > g.codeBase+g.hotN {
				nb = g.codeBase
			}
			g.winBase = nb
			g.pc = nb
		}
		g.site, g.cur = siteLoop, pc
		return Branch, pc
	}
	g.pc = pc + 4
	return g.at(pc)
}

// Next fills in the next record and reports whether one was produced; it
// is NextKind followed by the record's operand draw. After the final
// barrier it returns false forever.
func (g *Generator) Next(in *Instr) bool {
	k, pc := g.NextKind()
	switch k {
	case Load, Store:
		*in = Instr{Kind: k, PC: pc, Addr: g.Addr()}
	case Branch:
		taken, target := g.Branch()
		*in = Instr{Kind: Branch, PC: pc, Taken: taken, Target: target}
	case End:
		return false
	default:
		*in = Instr{Kind: k, PC: pc}
	}
	return true
}
