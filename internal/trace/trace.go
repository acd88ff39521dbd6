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

//xeonlint:hot >=1% flat in cmd/xeonchar/default.pgo
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

// threshold converts probability p to the integer bound q with
// float() < p ⟺ bits() < q. The division in float() is exact (power of
// two), so the comparison holds iff the draw is below ⌈p·2^53⌉; for
// integral p·2^53 the strict compare makes the same bound right.
func threshold(p float64) uint64 {
	return uint64(math.Ceil(p * (1 << 53)))
}

// below returns a uniform value in [0,n). n must be positive.
func (r *rng) below(n uint64) uint64 {
	return r.next() % n
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
//
//xeonlint:hot >=1% flat in cmd/xeonchar/default.pgo
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

// Generator produces one thread's stream.
type Generator struct {
	p      Params
	layout *mem.Layout
	tid    int
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

	// Normalized pattern thresholds.
	hotT, warmT, seqT, strideT float64

	// Hot-path caches, all pure functions of construction-time state (they
	// consume no RNG, so the emitted stream is byte-identical with or
	// without them). sites memoizes the per-PC site classification over the
	// hot code span: kinds are a pure function of the PC, and hot-loop PCs
	// repeat thousands of times, so the two pcMix hashes per visit were a
	// measurable slice of a study's wall time.
	hotN     uint64     // hotSpan(), computed once
	coldSpan uint64     // code bytes above the hot span
	canJump  bool       // the cold-excursion draw in Next is live
	priv     mem.Region // layout.Private[tid]
	hotB     uint64     // hot-set size clamped to the private region

	// Exact-remainder reciprocals for the three variable moduli on the
	// address/jump generation paths (see divisor).
	hotDiv, shDiv, pvDiv, coldDiv divisor

	sites []uint8 // 0 = not yet classified, else site* constants

	// Integer-domain probability bounds for the per-instruction draws
	// (see threshold): same RNG consumption, same outcomes, no
	// integer→float conversion per draw.
	hotTi, warmTi, seqTi, strideTi uint64
	sharedTi, jumpTi, entropyTi    uint64
}

// biasTi is threshold(0.96), the structured-branch taken bias.
var biasTi = threshold(0.96)

// Site classification codes for the sites memo (0 means "not yet
// classified", so every real code is non-zero).
const (
	siteLoad = iota + 1
	siteStore
	siteBranchData  // data-dependent branch site
	siteBranchPlain // structured, strongly-biased branch site
	siteCompute
)

// NewGenerator builds the stream generator for thread tid of a program with
// the given layout. budget is the number of instructions the thread will
// retire; seed makes distinct programs (and repeated trials) reproducible.
func NewGenerator(p Params, layout *mem.Layout, tid int, budget int64, seed uint64) (*Generator, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if tid < 0 || tid >= layout.Threads() {
		return nil, fmt.Errorf("trace: tid %d outside layout with %d threads", tid, layout.Threads())
	}
	if budget <= 0 {
		return nil, fmt.Errorf("trace: budget %d", budget)
	}
	total := p.HotFrac + p.WarmFrac + p.SeqFrac + p.StrideFrac + p.RandFrac
	g := &Generator{
		p:       p,
		layout:  layout,
		tid:     tid,
		budget:  budget,
		rng:     rng{s: seed ^ (uint64(tid)+1)*0xa0761d6478bd642f},
		pc:      layout.Code.Base,
		hotT:    p.HotFrac / total,
		warmT:   (p.HotFrac + p.WarmFrac) / total,
		seqT:    (p.HotFrac + p.WarmFrac + p.SeqFrac) / total,
		strideT: (p.HotFrac + p.WarmFrac + p.SeqFrac + p.StrideFrac) / total,
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
	g.sites = make([]uint8, g.hotN/4)
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

// pcMix deterministically maps an instruction address to a uniform value in
// [0,1). Instruction kinds are a pure function of the PC, as in real code:
// a given instruction is always a load, always a branch, and so on. This is
// what lets a global-history branch predictor learn the stream — the branch
// sites repeat every pass over the code loop.
//
//xeonlint:hot >=1% flat in cmd/xeonchar/default.pgo
func pcMix(pc uint64) float64 {
	z := pc * 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / (1 << 53)
}

// advance moves a cursor by step within region r, wrapping at the end.
func advance(cur uint64, step uint64, r mem.Region) uint64 {
	next := cur + step
	if next >= r.End() {
		return r.Base + (next-r.Base)%r.Size
	}
	return next
}

//xeonlint:hot >=1% flat in cmd/xeonchar/default.pgo
func (g *Generator) dataAddr() uint64 {
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

// classify derives the site code for pc from its hash. Kinds are a pure
// function of the PC, so branch sites are stable across passes and a
// history-based predictor can learn the stream. classify consumes no RNG.
//
//xeonlint:hot >=1% flat in cmd/xeonchar/default.pgo
func (g *Generator) classify(pc uint64) uint8 {
	r := pcMix(pc)
	switch {
	case r < g.p.LoadFrac:
		return siteLoad
	case r < g.p.LoadFrac+g.p.StoreFrac:
		return siteStore
	case r < g.p.LoadFrac+g.p.StoreFrac+g.p.BranchFrac:
		// Whether a branch site is data-dependent is also a property of
		// the site, not of the visit.
		if pcMix(pc^0xabcd1234) < g.p.DataBranchFrac {
			return siteBranchData
		}
		return siteBranchPlain
	default:
		return siteCompute
	}
}

// siteKind returns the site code for pc, memoized over the hot code span.
// Cold-excursion PCs (above the span) are classified on the fly — they are
// a fraction of a percent of the stream.
//
//xeonlint:hot >=1% flat in cmd/xeonchar/default.pgo
func (g *Generator) siteKind(pc uint64) uint8 {
	if off := pc - g.layout.Code.Base; off < g.hotN {
		i := off >> 2
		k := g.sites[i]
		if k == 0 {
			k = g.classify(pc)
			g.sites[i] = k
		}
		return k
	}
	return g.classify(pc)
}

// emitKind produces a non-loop-back record for the instruction at pc.
//
//xeonlint:hot >=1% flat in cmd/xeonchar/default.pgo
func (g *Generator) emitKind(pc uint64, in *Instr) {
	switch g.siteKind(pc) {
	case siteLoad:
		*in = Instr{Kind: Load, PC: pc, Addr: g.dataAddr()}
	case siteStore:
		*in = Instr{Kind: Store, PC: pc, Addr: g.dataAddr()}
	case siteBranchData:
		// Data-dependent: repeating pattern plus entropy flips.
		pat := g.p.DataPattern
		if pat == 0 {
			pat = 0xb6db6db6db6db6db // period-3 "110" pattern
		}
		taken := pat>>(g.dataBranchN%64)&1 == 1
		g.dataBranchN++
		if g.p.DataEntropy > 0 && g.rng.bits() < g.entropyTi {
			taken = g.rng.bits() < 1<<52 // fair coin
		}
		*in = Instr{Kind: Branch, PC: pc, Taken: taken, Target: pc + 16}
	case siteBranchPlain:
		// Structured non-loop branch: strongly biased taken.
		taken := g.rng.bits() < biasTi
		*in = Instr{Kind: Branch, PC: pc, Taken: taken, Target: pc + 16}
	default:
		*in = Instr{Kind: Compute, PC: pc}
	}
}

// WarmSet returns the line-aligned addresses of the thread's warm-scan
// footprint, used by the machine model to pre-establish steady-state cache
// contents before measurement.
func (g *Generator) WarmSet() []uint64 {
	if g.p.WarmFrac <= 0 {
		return nil
	}
	step := g.p.WarmStride
	if step == 0 {
		step = 192
	}
	seen := make(map[uint64]struct{})
	var out []uint64
	for cur := g.warmRegion.Base; cur < g.warmRegion.End(); cur += step {
		line := cur &^ 63
		if _, ok := seen[line]; !ok {
			seen[line] = struct{}{}
			out = append(out, line)
		}
	}
	return out
}

// HotSet returns the line-aligned addresses of the thread's hot set.
func (g *Generator) HotSet() []uint64 {
	if g.p.HotFrac <= 0 || g.p.HotBytes == 0 {
		return nil
	}
	priv := g.layout.Private[g.tid]
	hb := g.p.HotBytes
	if hb > priv.Size {
		hb = priv.Size
	}
	var out []uint64
	for cur := priv.Base; cur < priv.Base+hb; cur += 64 {
		out = append(out, cur&^63)
	}
	return out
}

// Next fills in the next record and reports whether one was produced. The
// stream is a fixed number of barrier-terminated chunks; after the final
// barrier it returns false forever. Barrier records do not consume budget.
//
//xeonlint:hot >=1% flat in cmd/xeonchar/default.pgo
func (g *Generator) Next(in *Instr) bool {
	if g.pendBarrier {
		g.pendBarrier = false
		g.chunksLeft--
		if g.chunksLeft > 0 {
			g.startChunk()
		}
		*in = Instr{Kind: Barrier}
		return true
	}
	if g.chunksLeft <= 0 {
		return false
	}
	if g.chunkLeft <= 0 {
		// Shouldn't happen (chunks start positive), but terminate cleanly.
		g.pendBarrier = true
		return g.Next(in)
	}
	g.budget--
	g.chunkLeft--
	if g.chunkLeft == 0 {
		g.pendBarrier = true
	}

	// Cold excursion in progress: straight-line walk, no loop-backs.
	if g.coldLeft > 0 {
		pc := g.pc
		g.coldLeft--
		if g.coldLeft == 0 {
			g.pc = g.coldResume
		} else {
			g.pc += 4
		}
		g.emitKind(pc, in)
		return true
	}

	// Occasionally leave the hot loops for outer/bookkeeping code in the
	// cold part of the code region, above the hot span (trace cache and
	// ITLB pressure). Cold code is straight-line and never overlaps the
	// hot loop tiles, so every PC keeps a single role.
	if g.canJump && g.rng.bits() < g.jumpTi {
		g.coldResume = g.pc
		g.pc = g.layout.Code.Base + g.hotN + g.coldDiv.rem(g.rng.next())&^3
		g.coldLeft = g.p.LoopLen
		pc := g.pc
		g.coldLeft--
		g.pc += 4
		g.emitKind(pc, in)
		return true
	}

	// Hot loop window: the last slot is the loop-back branch, taken except
	// when the iteration counter completes an outer trip of 64, at which
	// point execution advances to the next window of the hot region.
	pc := g.pc
	win := uint64(g.p.LoopLen) * 4
	if pc >= g.winBase+win-4 {
		g.loopIter++
		taken := g.loopIter%64 != 0
		if taken {
			g.pc = g.winBase
		} else {
			nb := g.winBase + win
			if nb+win > g.layout.Code.Base+g.hotN {
				nb = g.layout.Code.Base
			}
			g.winBase = nb
			g.pc = nb
		}
		*in = Instr{Kind: Branch, PC: pc, Taken: taken, Target: g.winBase}
		return true
	}
	g.pc = pc + 4
	g.emitKind(pc, in)
	return true
}
