package analysis

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"go/ast"
	"go/types"
	"io"
	"os"
	"sort"
	"strings"
)

// This file is the profile-guided fact layer: a standard-library-only
// reader for pprof CPU profiles (the gzipped protobuf format `go test
// -cpuprofile` and `xeonchar -cpuprofile` emit, and the compiler reads
// for PGO), plus the hot-set extraction the hotalloc analyzer keys on.
// The repo already ships the knowledge of where the simulator spends its
// time as cmd/xeonchar/default.pgo; decoding it here turns that checked-in
// profile into a lint oracle — hotalloc is strict exactly where the
// profiler says strictness pays.
//
// Only the subset of profile.proto the hot-set computation needs is
// decoded: the sample/location/function tables, the string table, and the
// sample_type column descriptors. Mappings, labels, and line numbers are
// skipped. Unknown fields are ignored (forward-compatible), but a
// structurally broken profile — truncated varint, bad length, tables
// referencing missing entries — is a loud error, never a panic.

// PGOValueType describes one sample value column ("cpu"/"nanoseconds").
type PGOValueType struct {
	Type string
	Unit string
}

// PGOProfile is a decoded pprof profile reduced to per-function weights.
type PGOProfile struct {
	// SampleTypes describes the value columns; ValueIndex is the column
	// the weights below were taken from (the "cpu" column when present,
	// else the last column, matching `go tool pprof` defaults).
	SampleTypes []PGOValueType
	ValueIndex  int
	// Total is the sum of the chosen value over all samples.
	Total int64
	// DurationNs is the profile's wall-clock duration, when recorded.
	DurationNs int64
	// Flat and Cum hold per-function weights keyed by the fully qualified
	// pprof function name ("xeonomp/internal/cpu.(*Core).Step"). Flat
	// charges the leaf frame of each sample (including the innermost
	// inlined frame); Cum charges every function on the sample's stack,
	// deduplicated per sample so recursion is not double-counted.
	Flat map[string]int64
	Cum  map[string]int64
}

// FlatShare returns the flat fraction of Total attributed to name.
func (p *PGOProfile) FlatShare(name string) float64 { return p.share(p.Flat[name]) }

// CumShare returns the cumulative fraction of Total attributed to name.
func (p *PGOProfile) CumShare(name string) float64 { return p.share(p.Cum[name]) }

func (p *PGOProfile) share(v int64) float64 {
	if p.Total <= 0 {
		return 0
	}
	return float64(v) / float64(p.Total)
}

// ReadPGO reads and decodes a pprof profile file.
func ReadPGO(path string) (*PGOProfile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("analysis: reading profile: %w", err)
	}
	p, err := ParsePGO(b)
	if err != nil {
		return nil, fmt.Errorf("analysis: %s: %w", path, err)
	}
	return p, nil
}

// ParsePGO decodes a pprof profile from its serialized bytes, gzipped or
// raw.
func ParsePGO(data []byte) (*PGOProfile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("malformed profile: %w", err)
		}
		data, err = io.ReadAll(zr)
		if err != nil {
			return nil, fmt.Errorf("malformed profile: %w", err)
		}
	}
	return parseProfileMessage(data)
}

// protoReader is a minimal protobuf wire-format cursor.
type protoReader struct {
	b   []byte
	off int
}

func (r *protoReader) done() bool { return r.off >= len(r.b) }

func (r *protoReader) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if r.off >= len(r.b) {
			return 0, fmt.Errorf("truncated varint at offset %d", r.off)
		}
		b := r.b[r.off]
		r.off++
		v |= uint64(b&0x7f) << shift
		if b&0x80 == 0 {
			return v, nil
		}
	}
	return 0, fmt.Errorf("varint overflow at offset %d", r.off)
}

// tag reads a field tag, returning the field number and wire type.
func (r *protoReader) tag() (int, int, error) {
	v, err := r.varint()
	if err != nil {
		return 0, 0, err
	}
	return int(v >> 3), int(v & 7), nil
}

// bytes reads a length-delimited field body.
func (r *protoReader) bytes() ([]byte, error) {
	n, err := r.varint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(r.b)-r.off) {
		return nil, fmt.Errorf("length %d exceeds remaining %d bytes", n, len(r.b)-r.off)
	}
	out := r.b[r.off : r.off+int(n)]
	r.off += int(n)
	return out, nil
}

// skip discards one field body of the given wire type.
func (r *protoReader) skip(wire int) error {
	switch wire {
	case 0: // varint
		_, err := r.varint()
		return err
	case 1: // fixed64
		if len(r.b)-r.off < 8 {
			return fmt.Errorf("truncated fixed64 at offset %d", r.off)
		}
		r.off += 8
		return nil
	case 2: // length-delimited
		_, err := r.bytes()
		return err
	case 5: // fixed32
		if len(r.b)-r.off < 4 {
			return fmt.Errorf("truncated fixed32 at offset %d", r.off)
		}
		r.off += 4
		return nil
	default:
		return fmt.Errorf("unsupported wire type %d at offset %d", wire, r.off)
	}
}

// repeatedUvarints decodes a repeated varint field that may arrive packed
// (wire type 2) or one scalar at a time (wire type 0).
func repeatedUvarints(dst []uint64, wire int, r *protoReader) ([]uint64, error) {
	if wire == 0 {
		v, err := r.varint()
		if err != nil {
			return nil, err
		}
		return append(dst, v), nil
	}
	body, err := r.bytes()
	if err != nil {
		return nil, err
	}
	pr := &protoReader{b: body}
	for !pr.done() {
		v, err := pr.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, v)
	}
	return dst, nil
}

// pgoSample, pgoLocation, pgoValueType are the intermediate decoded rows.
type pgoSample struct {
	locs []uint64
	vals []int64
}

type pgoValueTypeIdx struct{ typ, unit uint64 }

// parseProfileMessage decodes the top-level Profile message.
func parseProfileMessage(data []byte) (*PGOProfile, error) {
	r := &protoReader{b: data}
	var (
		strtab     []string
		samples    []pgoSample
		typeIdx    []pgoValueTypeIdx
		funcName   = map[uint64]uint64{}   // function id -> name string index
		locFuncs   = map[uint64][]uint64{} // location id -> function ids, innermost first
		durationNs int64
	)
	for !r.done() {
		field, wire, err := r.tag()
		if err != nil {
			return nil, fmt.Errorf("malformed profile: %w", err)
		}
		switch field {
		case 1: // sample_type: ValueType
			body, err := r.bytes()
			if err != nil {
				return nil, fmt.Errorf("malformed sample_type: %w", err)
			}
			vt, err := parseValueType(body)
			if err != nil {
				return nil, err
			}
			typeIdx = append(typeIdx, vt)
		case 2: // sample
			body, err := r.bytes()
			if err != nil {
				return nil, fmt.Errorf("malformed sample: %w", err)
			}
			s, err := parseSample(body)
			if err != nil {
				return nil, err
			}
			samples = append(samples, s)
		case 4: // location
			body, err := r.bytes()
			if err != nil {
				return nil, fmt.Errorf("malformed location: %w", err)
			}
			id, fns, err := parseLocation(body)
			if err != nil {
				return nil, err
			}
			locFuncs[id] = fns
		case 5: // function
			body, err := r.bytes()
			if err != nil {
				return nil, fmt.Errorf("malformed function: %w", err)
			}
			id, name, err := parseFunction(body)
			if err != nil {
				return nil, err
			}
			funcName[id] = name
		case 6: // string_table
			body, err := r.bytes()
			if err != nil {
				return nil, fmt.Errorf("malformed string table: %w", err)
			}
			strtab = append(strtab, string(body))
		case 10: // duration_nanos
			v, err := r.varint()
			if err != nil {
				return nil, fmt.Errorf("malformed duration: %w", err)
			}
			durationNs = int64(v)
		default:
			if err := r.skip(wire); err != nil {
				return nil, fmt.Errorf("malformed profile field %d: %w", field, err)
			}
		}
	}

	str := func(idx uint64) (string, error) {
		if idx >= uint64(len(strtab)) {
			return "", fmt.Errorf("malformed profile: string index %d out of range (table has %d)", idx, len(strtab))
		}
		return strtab[idx], nil
	}

	p := &PGOProfile{
		DurationNs: durationNs,
		Flat:       map[string]int64{},
		Cum:        map[string]int64{},
	}
	for _, vt := range typeIdx {
		t, err := str(vt.typ)
		if err != nil {
			return nil, err
		}
		u, err := str(vt.unit)
		if err != nil {
			return nil, err
		}
		p.SampleTypes = append(p.SampleTypes, PGOValueType{Type: t, Unit: u})
	}

	// Value column: the "cpu" column when present, else the last one —
	// the same default `go tool pprof` applies to CPU profiles, whose
	// columns are [samples/count, cpu/nanoseconds].
	p.ValueIndex = len(p.SampleTypes) - 1
	for i, vt := range p.SampleTypes {
		if vt.Type == "cpu" {
			p.ValueIndex = i
			break
		}
	}
	if p.ValueIndex < 0 {
		p.ValueIndex = 0
	}

	for _, s := range samples {
		if len(s.vals) == 0 {
			continue
		}
		vi := p.ValueIndex
		if vi >= len(s.vals) {
			vi = len(s.vals) - 1
		}
		v := s.vals[vi]
		p.Total += v

		// Flat: the innermost frame of the first location. Cum: every
		// function on the stack, once per sample.
		seen := map[string]bool{}
		for i, loc := range s.locs {
			fns, ok := locFuncs[loc]
			if !ok {
				return nil, fmt.Errorf("malformed profile: sample references unknown location %d", loc)
			}
			for j, fid := range fns {
				nameIdx, ok := funcName[fid]
				if !ok {
					return nil, fmt.Errorf("malformed profile: location %d references unknown function %d", loc, fid)
				}
				name, err := str(nameIdx)
				if err != nil {
					return nil, err
				}
				if i == 0 && j == 0 {
					p.Flat[name] += v
				}
				if !seen[name] {
					seen[name] = true
					p.Cum[name] += v
				}
			}
		}
	}
	return p, nil
}

func parseValueType(body []byte) (pgoValueTypeIdx, error) {
	var vt pgoValueTypeIdx
	r := &protoReader{b: body}
	for !r.done() {
		field, wire, err := r.tag()
		if err != nil {
			return vt, fmt.Errorf("malformed value type: %w", err)
		}
		switch field {
		case 1:
			if vt.typ, err = r.varint(); err != nil {
				return vt, fmt.Errorf("malformed value type: %w", err)
			}
		case 2:
			if vt.unit, err = r.varint(); err != nil {
				return vt, fmt.Errorf("malformed value type: %w", err)
			}
		default:
			if err := r.skip(wire); err != nil {
				return vt, fmt.Errorf("malformed value type: %w", err)
			}
		}
	}
	return vt, nil
}

func parseSample(body []byte) (pgoSample, error) {
	var s pgoSample
	r := &protoReader{b: body}
	for !r.done() {
		field, wire, err := r.tag()
		if err != nil {
			return s, fmt.Errorf("malformed sample: %w", err)
		}
		switch field {
		case 1: // location_id
			if s.locs, err = repeatedUvarints(s.locs, wire, r); err != nil {
				return s, fmt.Errorf("malformed sample locations: %w", err)
			}
		case 2: // value
			var vals []uint64
			if vals, err = repeatedUvarints(nil, wire, r); err != nil {
				return s, fmt.Errorf("malformed sample values: %w", err)
			}
			for _, v := range vals {
				s.vals = append(s.vals, int64(v))
			}
		default:
			if err := r.skip(wire); err != nil {
				return s, fmt.Errorf("malformed sample: %w", err)
			}
		}
	}
	return s, nil
}

// parseLocation returns the location id and its function ids, innermost
// (leaf of the inlined stack) first — profile.proto orders Line entries
// that way, with the last entry being the caller the others were inlined
// into.
func parseLocation(body []byte) (uint64, []uint64, error) {
	var id uint64
	var fns []uint64
	r := &protoReader{b: body}
	for !r.done() {
		field, wire, err := r.tag()
		if err != nil {
			return 0, nil, fmt.Errorf("malformed location: %w", err)
		}
		switch field {
		case 1:
			if id, err = r.varint(); err != nil {
				return 0, nil, fmt.Errorf("malformed location id: %w", err)
			}
		case 4: // line
			lineBody, err := r.bytes()
			if err != nil {
				return 0, nil, fmt.Errorf("malformed line: %w", err)
			}
			lr := &protoReader{b: lineBody}
			for !lr.done() {
				lf, lw, err := lr.tag()
				if err != nil {
					return 0, nil, fmt.Errorf("malformed line: %w", err)
				}
				if lf == 1 && lw == 0 {
					fid, err := lr.varint()
					if err != nil {
						return 0, nil, fmt.Errorf("malformed line function id: %w", err)
					}
					fns = append(fns, fid)
					continue
				}
				if err := lr.skip(lw); err != nil {
					return 0, nil, fmt.Errorf("malformed line: %w", err)
				}
			}
		default:
			if err := r.skip(wire); err != nil {
				return 0, nil, fmt.Errorf("malformed location: %w", err)
			}
		}
	}
	return id, fns, nil
}

func parseFunction(body []byte) (id, name uint64, err error) {
	r := &protoReader{b: body}
	for !r.done() {
		field, wire, err := r.tag()
		if err != nil {
			return 0, 0, fmt.Errorf("malformed function: %w", err)
		}
		switch field {
		case 1:
			if id, err = r.varint(); err != nil {
				return 0, 0, fmt.Errorf("malformed function id: %w", err)
			}
		case 2:
			if name, err = r.varint(); err != nil {
				return 0, 0, fmt.Errorf("malformed function name: %w", err)
			}
		default:
			if err := r.skip(wire); err != nil {
				return 0, 0, fmt.Errorf("malformed function: %w", err)
			}
		}
	}
	return id, name, nil
}

// ---------------------------------------------------------------------
// Hot-set extraction over the module call graph.

// DefaultHotThreshold is the flat-share cutoff for profile hotness: a
// function holding at least 1% of the profile's samples is hot.
const DefaultHotThreshold = 0.01

// hotDirective is the comment that forces a function into the hot set
// without profile evidence, written in the function's doc comment:
//
//	//xeonlint:hot <optional reason>
const hotDirective = "//xeonlint:hot"

// HotFunc is one member of the hot set, for reports and tests.
type HotFunc struct {
	Fn   *types.Func
	Name string // pprof-style qualified name
	// Flat and Cum are the function's shares of the profile total
	// (closure samples folded into the enclosing function); zero for
	// directive-only members.
	Flat, Cum float64
	// Reason explains membership: profile share, //xeonlint:hot, or the
	// hot loop that calls it.
	Reason string
}

// hotFacts is the solved hot set: the analyzers' shared view of where the
// profiler says the module spends its time.
type hotFacts struct {
	// stats carries profile shares for every module function the profile
	// resolved onto, hot or not.
	stats map[*types.Func]*hotStat
	// hot is the hot set with the reason each member joined.
	hot map[*types.Func]string
	// loopHot marks functions that are hot because a hot loop calls
	// them: their whole body executes per iteration, so the analyzers
	// treat every statement in them as loop-level.
	loopHot map[*types.Func]bool
	// unresolved lists module-prefixed profile names that did not map to
	// a declared function — the staleness signal the freshness gate and
	// -hot-report surface.
	unresolved []string
}

type hotStat struct{ flat, cum float64 }

// hotFor solves the hot set once per Program: resolve profile names onto
// declared functions (folding closures into their enclosing function),
// seed from the flat-share threshold and //xeonlint:hot directives, then
// propagate through calls made inside hot loops.
func (f *Facts) hotFor() *hotFacts {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.hotf != nil {
		return f.hotf
	}
	p := f.prog
	hf := &hotFacts{
		stats:   map[*types.Func]*hotStat{},
		hot:     map[*types.Func]string{},
		loopHot: map[*types.Func]bool{},
	}

	// Resolve profile weights onto declared functions.
	if prof := p.PGO; prof != nil && prof.Total > 0 {
		byName := map[string]*types.Func{}
		for _, fi := range f.Funcs {
			byName[pprofName(fi.Fn)] = fi.Fn
		}
		names := make([]string, 0, len(prof.Cum))
		for name := range prof.Cum {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fn, ok := byName[stripClosureSuffix(name)]
			if !ok {
				if p.moduleProfileName(name) {
					hf.unresolved = append(hf.unresolved, name)
				}
				continue
			}
			st := hf.stats[fn]
			if st == nil {
				st = &hotStat{}
				hf.stats[fn] = st
			}
			st.flat += prof.FlatShare(name)
			st.cum += prof.CumShare(name)
		}
		for _, fi := range f.Funcs {
			st := hf.stats[fi.Fn]
			if st != nil && st.flat >= DefaultHotThreshold {
				hf.hot[fi.Fn] = fmt.Sprintf("%.1f%% flat in profile", st.flat*100)
			}
		}
	}

	// //xeonlint:hot directives extend the set without profile evidence.
	for _, fi := range f.Funcs {
		if fi.Decl.Doc == nil {
			continue
		}
		for _, c := range fi.Decl.Doc.List {
			if c.Text == hotDirective || strings.HasPrefix(c.Text, hotDirective+" ") {
				if _, ok := hf.hot[fi.Fn]; !ok {
					hf.hot[fi.Fn] = "marked " + hotDirective
				}
			}
		}
	}

	// Propagate along hot-loop calls: a module function called from
	// inside a loop of a hot function runs per iteration, so it is hot
	// too, and its whole body counts as loop context. Fixpoint over the
	// call sites, since the propagated functions have loops of their own.
	work := make([]*types.Func, 0, len(hf.hot))
	for fn := range hf.hot {
		work = append(work, fn)
	}
	sort.Slice(work, func(i, j int) bool { return pprofName(work[i]) < pprofName(work[j]) })
	for len(work) > 0 {
		fn := work[0]
		work = work[1:]
		fi := f.FuncOf[fn]
		if fi == nil {
			continue
		}
		for _, callee := range loopCallees(fi, hf.loopHot[fn]) {
			if f.FuncOf[callee] == nil {
				continue
			}
			if _, ok := hf.hot[callee]; ok {
				continue
			}
			hf.hot[callee] = "called in a hot loop of " + shortFuncName(fn)
			hf.loopHot[callee] = true
			work = append(work, callee)
		}
	}

	f.hotf = hf
	return hf
}

// loopCallees returns the static callees of fi that are invoked inside a
// loop (or anywhere, when the whole body is loop context), in source
// order.
func loopCallees(fi *FuncInfo, bodyIsLoop bool) []*types.Func {
	var out []*types.Func
	seen := map[*types.Func]bool{}
	var walk func(n ast.Node, depth int)
	walk = func(n ast.Node, depth int) {
		ast.Inspect(n, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.ForStmt:
				if m.Body != nil {
					walk(m.Body, depth+1)
				}
				// Init/Cond/Post run at loop frequency too, but once per
				// iteration check; treat them as loop context as well.
				if m.Cond != nil {
					walk(m.Cond, depth+1)
				}
				if m.Post != nil {
					walk(m.Post, depth+1)
				}
				return false
			case *ast.RangeStmt:
				if m.Body != nil {
					walk(m.Body, depth+1)
				}
				return false
			case *ast.CallExpr:
				if depth == 0 {
					return true
				}
				if callee := calleeFunc(fi.Pkg.Info, m); callee != nil && !seen[callee] {
					seen[callee] = true
					out = append(out, callee)
				}
			}
			return true
		})
	}
	start := 0
	if bodyIsLoop {
		start = 1
	}
	walk(fi.Decl.Body, start)
	return out
}

// HotFunctions returns the solved hot set sorted by descending flat
// share, ties broken by name — the -hot-report and freshness-gate view.
func (p *Program) HotFunctions() []HotFunc {
	hf := p.Facts().hotFor()
	out := make([]HotFunc, 0, len(hf.hot))
	for fn, reason := range hf.hot {
		h := HotFunc{Fn: fn, Name: pprofName(fn), Reason: reason}
		if st := hf.stats[fn]; st != nil {
			h.Flat, h.Cum = st.flat, st.cum
		}
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Flat != out[j].Flat {
			return out[i].Flat > out[j].Flat
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// UnresolvedHotNames returns profile function names under the module path
// that did not resolve to any declared function — non-empty means the
// checked-in profile has drifted from the source.
func (p *Program) UnresolvedHotNames() []string {
	return p.Facts().hotFor().unresolved
}

// moduleProfileName reports whether a pprof function name belongs to the
// loaded module: "<modulepath>.Func" for the root package, or
// "<modulepath>/sub/pkg.Func" for any subpackage. The module path comes
// from go.mod via the loader, so a host-rooted path like
// github.com/org/repo never claims unrelated dependencies' frames that
// merely share the host segment.
func (p *Program) moduleProfileName(name string) bool {
	mp := p.ModulePath
	if mp == "" {
		return false
	}
	return strings.HasPrefix(name, mp+".") || strings.HasPrefix(name, mp+"/")
}

// pprofName renders a declared function the way pprof spells it:
// "pkg/path.Func", "pkg/path.(*Recv).Method", "pkg/path.Recv.Method".
func pprofName(fn *types.Func) string {
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Path()
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return pkg + "." + fn.Name()
	}
	t := sig.Recv().Type()
	if ptr, isPtr := t.(*types.Pointer); isPtr {
		if named, ok := ptr.Elem().(*types.Named); ok {
			return pkg + ".(*" + named.Obj().Name() + ")." + fn.Name()
		}
		return pkg + "." + fn.Name()
	}
	if named, ok := t.(*types.Named); ok {
		return pkg + "." + named.Obj().Name() + "." + fn.Name()
	}
	return pkg + "." + fn.Name()
}

// shortFuncName renders a function for messages without the module path:
// "cpu.(*Core).Step".
func shortFuncName(fn *types.Func) string {
	name := pprofName(fn)
	if i := strings.LastIndex(name, "/"); i >= 0 {
		name = name[i+1:]
	}
	return name
}

// stripClosureSuffix folds pprof closure names onto their enclosing
// function: "pkg.(*T).run.func1.2" becomes "pkg.(*T).run". Trailing
// ".funcN" (and nested ".N") segments are removed; "-fm" method-value
// wrappers are stripped too.
func stripClosureSuffix(name string) string {
	name = strings.TrimSuffix(name, "-fm")
	for {
		i := strings.LastIndex(name, ".")
		if i < 0 {
			return name
		}
		seg := name[i+1:]
		if isClosureSegment(seg) {
			name = name[:i]
			continue
		}
		return name
	}
}

// isClosureSegment reports whether a dot-separated name segment is a
// compiler-generated closure id: "func1", "func2", or a bare ordinal "2".
func isClosureSegment(seg string) bool {
	if seg == "" {
		return false
	}
	digits := seg
	if strings.HasPrefix(seg, "func") {
		digits = seg[len("func"):]
		if digits == "" {
			return false
		}
	}
	for _, r := range digits {
		if r < '0' || r > '9' {
			return false
		}
	}
	return true
}
