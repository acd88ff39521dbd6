package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// NDTaint is the interprocedural successor of the old per-file
// determinism analyzer. It guards the bit-stable-output promise on two
// levels:
//
//   - locally, like before: simulation and export packages must not read
//     the wall clock, must not draw from the global (unseeded) math/rand
//     source, and must not let map-iteration order reach ordered output
//   - globally, on the dataflow engine: nondeterminism *sources* (wall
//     clock, global rand, environment reads) are propagated through
//     assignments, helper calls, and struct fields — an SSA-lite taint
//     mask per value, a summary per function — and reported wherever a
//     tainted value reaches a serialization *sink*: the internal/golden
//     exporters, report.Table row builders, journal.Append, or
//     runcache.Put. A timestamp laundered through three helpers and a
//     struct field into an artifact is caught at the sink even though no
//     single file looks wrong.
//
// The wall-clock allowlist still applies to where findings are reported
// (internal/journal's progress reporter legitimately observes real
// time), but taint is tracked *through* allowlisted code: an
// allowlisted timestamp that escapes into a golden artifact is still a
// finding, reported at the sink call outside the allowlist.
type NDTaint struct{}

func (*NDTaint) Name() string { return "taint" }
func (*NDTaint) Doc() string {
	return "forbid wall-clock/rand/env nondeterminism, locally and via interprocedural flows into exporters"
}

// wallClockAllowlist names the packages (by path suffix) allowed to read
// the wall clock: the progress/ETA reporter, which exists to report real
// elapsed time, the observability layer, which is the single
// clock-reading choke point the rest of the tree instruments through
// (obs.StartTimer/Span) — its values flow into the metric registry and
// tracer, never into artifacts — and the wire layer (internal/api,
// internal/shard), whose timers pace retries and reconnects without
// touching payloads.
// Everything else in the tree is simulation or export code, where
// wall-clock reads are nondeterminism leaking into results.
//
// The allowlist is also a taint *boundary* for the interprocedural
// solver, but only for opaque handles: clock taint originating inside an
// allowlisted package is stripped from a function's returns when every
// result is a type the package declares itself (obs.Timer, *obs.Span), a
// context, or an error — handles whose timing content is consumed by the
// observability layer, never exported. Plain data escaping an allowlisted
// function (a time.Time, an int64 of nanoseconds) keeps its clock taint,
// clock taint passing through an allowlisted call via its arguments still
// propagates, and a direct time.Now in any other package is still
// flagged.
var wallClockAllowlist = []string{
	"internal/journal",
	"internal/obs",
	// The wire layer: reconnect backoff, 429 retry pacing, and failover
	// probing are real-time concerns by nature. Nothing these packages
	// compute from the clock reaches results — backends cannot affect
	// artifact bytes (the golden equivalence tests pin that).
	"internal/api",
	"internal/shard",
}

func allowlisted(pkg *Package) bool {
	return allowlistedPath(pkg.Path)
}

func allowlistedPath(path string) bool {
	for _, allowed := range wallClockAllowlist {
		if pathHasSuffix(path, allowed) {
			return true
		}
	}
	return false
}

// clockBoundary reports whether fn's returns form a clock-taint
// boundary: fn is declared in an allowlisted package and every result is
// an opaque handle type (declared in an allowlisted package itself, a
// context, or an error) rather than plain data that could end up in an
// artifact.
func clockBoundary(fn *types.Func) bool {
	if fn == nil || fn.Pkg() == nil || !allowlistedPath(fn.Pkg().Path()) {
		return false
	}
	res := fn.Type().(*types.Signature).Results()
	if res.Len() == 0 {
		return false
	}
	for i := 0; i < res.Len(); i++ {
		if !boundaryType(res.At(i).Type()) {
			return false
		}
	}
	return true
}

func boundaryType(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return obj.Name() == "error"
	}
	return obj.Pkg().Path() == "context" || allowlistedPath(obj.Pkg().Path())
}

// wallClockFuncs are the time package entry points that observe the wall
// clock (referencing one as a value counts too, so `now := time.Now`
// cannot hide a read).
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true,
	"Tick": true, "After": true, "AfterFunc": true,
	"NewTimer": true, "NewTicker": true,
}

// globalRandFuncs are the math/rand (and v2) package-level draws backed by
// the shared source. Constructing an explicitly seeded generator
// (rand.New(rand.NewSource(seed))) stays legal.
var globalRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Int32": true, "Int32N": true,
	"Int64": true, "Int64N": true, "IntN": true, "N": true,
	"Uint32": true, "Uint64": true, "Uint32N": true, "Uint64N": true,
	"Uint": true, "UintN": true,
	"Float32": true, "Float64": true, "ExpFloat64": true, "NormFloat64": true,
	"Perm": true, "Shuffle": true, "Read": true, "Seed": true,
}

// envFuncs are the os package environment reads. Reading the environment
// is legal on its own (tests and harnesses tune themselves with it); it
// only becomes a finding when the value flows into a serialization sink,
// so env is a flow-only taint source with no local blanket check.
var envFuncs = map[string]bool{"Getenv": true, "LookupEnv": true, "Environ": true}

// taintKind is a bitset of nondeterminism source families.
type taintKind uint8

const (
	taintClock taintKind = 1 << iota // wall-clock reads (time.Now and friends)
	taintRand                        // global unseeded math/rand draws
	taintEnv                         // process-environment reads
)

func (k taintKind) String() string {
	var parts []string
	if k&taintClock != 0 {
		parts = append(parts, "wall-clock")
	}
	if k&taintRand != 0 {
		parts = append(parts, "unseeded-rand")
	}
	if k&taintEnv != 0 {
		parts = append(parts, "environment")
	}
	if len(parts) == 0 {
		return "clean"
	}
	return strings.Join(parts, "+")
}

// taintMask is the value-flow lattice element: the low byte carries the
// source kinds a value may derive from, the high bits carry the function
// inputs (receiver, then parameters) it may depend on. Join is bitwise
// OR, bottom is zero, and the lattice is finite, so every fixed point
// below terminates.
type taintMask uint64

const taintInputShift = 8

func (m taintMask) kinds() taintKind  { return taintKind(m) }
func (m taintMask) inputs() taintMask { return m >> taintInputShift << taintInputShift }

// inputBit returns the lattice bit of function input i (receiver first,
// then parameters). Inputs past the representable 56 are conservatively
// untracked.
func inputBit(i int) taintMask {
	if i >= 64-taintInputShift {
		return 0
	}
	return taintMask(1) << (taintInputShift + i)
}

// taintSummary is one function's interprocedural contract.
type taintSummary struct {
	// ret is the mask of sources and inputs that may reach the function's
	// return values.
	ret taintMask
	// sinkParams marks the inputs that reach a serialization sink inside
	// the function (directly or through further calls).
	sinkParams taintMask
	// fieldFlows records inputs the function stores into struct fields,
	// so a caller passing a tainted argument taints the field globally.
	fieldFlows []taintFieldFlow
}

type taintFieldFlow struct {
	inputs taintMask
	field  *types.Var
}

// taintFacts is the module-wide fixed point: per-function summaries plus
// the field- and package-variable taint that crosses function boundaries.
type taintFacts struct {
	facts      *Facts
	summaries  map[*types.Func]*taintSummary
	fieldTaint map[*types.Var]taintKind
	varTaint   map[*types.Var]taintKind // package-level variables
	changed    bool
}

// taintFor solves the whole-module taint analysis once and caches it.
func (f *Facts) taintFor() *taintFacts {
	if f.taint != nil {
		return f.taint
	}
	tf := &taintFacts{
		facts:      f,
		summaries:  map[*types.Func]*taintSummary{},
		fieldTaint: map[*types.Var]taintKind{},
		varTaint:   map[*types.Var]taintKind{},
	}
	for _, fi := range f.Funcs {
		tf.summaries[fi.Fn] = &taintSummary{}
	}
	// Bottom-up over the call graph, iterated to a global fixed point:
	// one sweep resolves call chains without cycles; field taint and
	// recursion converge in the following sweeps.
	for sweep := 0; sweep < 32; sweep++ {
		tf.changed = false
		tf.solvePackageVars()
		for _, fi := range f.Funcs {
			a := tf.analysisFor(fi)
			a.solve()
			a.commit()
		}
		if !tf.changed {
			break
		}
	}
	f.taint = tf
	return tf
}

// solvePackageVars folds package-level initializers into the variable
// taint map (`var t0 = time.Now()` taints t0 for every reader).
func (tf *taintFacts) solvePackageVars() {
	for _, pkg := range tf.facts.prog.Packages {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok {
					continue
				}
				for _, spec := range gd.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok {
						continue
					}
					a := &taintAnalysis{tf: tf, pkg: pkg, env: map[types.Object]taintMask{}, inputs: map[types.Object]int{}}
					for i, name := range vs.Names {
						var m taintMask
						if len(vs.Values) == len(vs.Names) {
							m = a.eval(vs.Values[i])
						} else if len(vs.Values) == 1 {
							m = a.eval(vs.Values[0])
						}
						if v, ok := pkg.Info.Defs[name].(*types.Var); ok && m.kinds() != 0 {
							tf.setVarTaint(v, m.kinds())
						}
					}
				}
			}
		}
	}
}

func (tf *taintFacts) setVarTaint(v *types.Var, k taintKind) {
	if tf.varTaint[v]&k != k {
		tf.varTaint[v] |= k
		tf.changed = true
	}
}

func (tf *taintFacts) setFieldTaint(fld *types.Var, k taintKind) {
	if tf.fieldTaint[fld]&k != k {
		tf.fieldTaint[fld] |= k
		tf.changed = true
	}
}

// analysisFor prepares the per-function lattice: every input (receiver,
// then parameters) starts at its own input bit.
func (tf *taintFacts) analysisFor(fi *FuncInfo) *taintAnalysis {
	a := &taintAnalysis{
		tf:     tf,
		fi:     fi,
		pkg:    fi.Pkg,
		env:    map[types.Object]taintMask{},
		inputs: map[types.Object]int{},
	}
	sig := fi.Fn.Type().(*types.Signature)
	i := 0
	if recv := sig.Recv(); recv != nil {
		a.inputs[recv] = i
		a.env[recv] = inputBit(i)
		i++
	}
	for p := 0; p < sig.Params().Len(); p++ {
		prm := sig.Params().At(p)
		a.inputs[prm] = i
		a.env[prm] = inputBit(i)
		i++
	}
	a.numInputs = i
	return a
}

// taintAnalysis is the SSA-lite value-flow pass over one function body:
// an environment mapping each local object to its taint mask, iterated to
// a local fixed point, with interprocedural effects routed through the
// shared taintFacts.
type taintAnalysis struct {
	tf        *taintFacts
	fi        *FuncInfo // nil when folding package-level initializers
	pkg       *Package
	env       map[types.Object]taintMask
	inputs    map[types.Object]int
	numInputs int

	summary taintSummary // effects observed this pass

	// report, when set, receives sink findings; nil while solving.
	report func(n ast.Node, format string, args ...any)
}

// solve iterates the body to a local fixed point. Assignment order in a
// single walk already covers straight-line flow; the loop covers
// loop-carried and out-of-order dependencies.
func (a *taintAnalysis) solve() {
	for pass := 0; pass < 8; pass++ {
		before := a.snapshot()
		a.walk()
		if a.snapshot() == before {
			break
		}
	}
}

func (a *taintAnalysis) snapshot() uint64 {
	var h uint64
	for _, m := range a.env {
		h += uint64(m) * 1099511628211
	}
	return h
}

// commit merges the observed effects into the function's shared summary.
func (a *taintAnalysis) commit() {
	sum := a.tf.summaries[a.fi.Fn]
	if sum.ret|a.summary.ret != sum.ret {
		sum.ret |= a.summary.ret
		a.tf.changed = true
	}
	if sum.sinkParams|a.summary.sinkParams != sum.sinkParams {
		sum.sinkParams |= a.summary.sinkParams
		a.tf.changed = true
	}
	for _, flow := range a.summary.fieldFlows {
		if !sum.hasFlow(flow) {
			sum.fieldFlows = append(sum.fieldFlows, flow)
			a.tf.changed = true
		}
	}
}

func (s *taintSummary) hasFlow(flow taintFieldFlow) bool {
	for _, f := range s.fieldFlows {
		if f.field == flow.field && f.inputs|flow.inputs == f.inputs {
			return true
		}
	}
	return false
}

// walk visits every statement of the function body (including nested
// literals, whose captures share this environment) and applies the
// transfer functions.
func (a *taintAnalysis) walk() {
	body := a.fi.Decl.Body
	var lits []*ast.FuncLit
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			lits = append(lits, n)
		case *ast.AssignStmt:
			a.assign(n)
		case *ast.RangeStmt:
			m := a.eval(n.X)
			a.apply(n.Key, m, n)
			a.apply(n.Value, m, n)
		case *ast.ReturnStmt:
			// Returns inside nested literals belong to the literal, not to
			// this function's summary.
			for _, lit := range lits {
				if n.Pos() >= lit.Pos() && n.End() <= lit.End() {
					return true
				}
			}
			for _, res := range n.Results {
				a.summary.ret |= a.eval(res)
			}
			if len(n.Results) == 0 {
				// Named results returned bare.
				sig := a.fi.Fn.Type().(*types.Signature)
				for i := 0; i < sig.Results().Len(); i++ {
					a.summary.ret |= a.env[sig.Results().At(i)]
				}
			}
		case *ast.ExprStmt:
			a.eval(n.X) // sink calls used as statements
		case *ast.GoStmt:
			a.eval(n.Call)
		case *ast.DeferStmt:
			a.eval(n.Call)
		}
		return true
	})
}

// assign applies one assignment: RHS masks join into LHS objects, and
// stores into struct fields or package variables escalate to the global
// maps.
func (a *taintAnalysis) assign(n *ast.AssignStmt) {
	if len(n.Lhs) == len(n.Rhs) {
		for i := range n.Lhs {
			a.apply(n.Lhs[i], a.eval(n.Rhs[i]), n)
		}
		return
	}
	if len(n.Rhs) == 1 { // tuple assignment: v, ok := f()
		m := a.eval(n.Rhs[0])
		for _, lhs := range n.Lhs {
			a.apply(lhs, m, n)
		}
	}
}

// apply joins mask m into an assignment target.
func (a *taintAnalysis) apply(target ast.Expr, m taintMask, at ast.Node) {
	if target == nil || m == 0 {
		return
	}
	switch t := ast.Unparen(target).(type) {
	case *ast.Ident:
		obj := assignedObj(a.pkg.Info, t)
		v, ok := obj.(*types.Var)
		if !ok {
			return
		}
		if v.Parent() == a.pkg.Types.Scope() {
			// Package-level variable: visible to every function.
			if m.kinds() != 0 {
				a.tf.setVarTaint(v, m.kinds())
			}
			return
		}
		a.env[v] |= m
	case *ast.SelectorExpr:
		if s, ok := a.pkg.Info.Selections[t]; ok && s.Kind() == types.FieldVal {
			if fld, ok := s.Obj().(*types.Var); ok {
				if m.kinds() != 0 {
					a.tf.setFieldTaint(fld, m.kinds())
				}
				if m.inputs() != 0 {
					a.noteFieldFlow(m.inputs(), fld)
				}
			}
			return
		}
		a.apply(t.X, m, at)
	case *ast.IndexExpr:
		a.apply(t.X, m, at)
	case *ast.StarExpr:
		a.apply(t.X, m, at)
	}
}

func (a *taintAnalysis) noteFieldFlow(inputs taintMask, fld *types.Var) {
	if a.fi == nil {
		return
	}
	flow := taintFieldFlow{inputs: inputs, field: fld}
	if !a.summary.hasFlow(flow) {
		a.summary.fieldFlows = append(a.summary.fieldFlows, flow)
	}
}

// eval computes the taint mask of an expression.
func (a *taintAnalysis) eval(e ast.Expr) taintMask {
	switch e := e.(type) {
	case nil:
		return 0
	case *ast.Ident:
		if v, ok := objOf(a.pkg.Info, e).(*types.Var); ok {
			return a.env[v] | taintMask(a.tf.varTaint[v])
		}
		if fn, ok := a.pkg.Info.Uses[e].(*types.Func); ok {
			return taintMask(sourceKind(fn)) // now := time.Now
		}
		return 0
	case *ast.SelectorExpr:
		if fn, ok := a.pkg.Info.Uses[e.Sel].(*types.Func); ok {
			if k := sourceKind(fn); k != 0 {
				return taintMask(k)
			}
			return a.eval(e.X) // method value of a possibly tainted receiver
		}
		if s, ok := a.pkg.Info.Selections[e]; ok && s.Kind() == types.FieldVal {
			m := a.eval(e.X)
			if fld, ok := s.Obj().(*types.Var); ok {
				m |= taintMask(a.tf.fieldTaint[fld])
			}
			return m
		}
		if v, ok := a.pkg.Info.Uses[e.Sel].(*types.Var); ok {
			return taintMask(a.tf.varTaint[v]) // qualified package var
		}
		return 0
	case *ast.CallExpr:
		return a.evalCall(e)
	case *ast.BinaryExpr:
		return a.eval(e.X) | a.eval(e.Y)
	case *ast.UnaryExpr:
		return a.eval(e.X)
	case *ast.ParenExpr:
		return a.eval(e.X)
	case *ast.StarExpr:
		return a.eval(e.X)
	case *ast.IndexExpr:
		return a.eval(e.X)
	case *ast.SliceExpr:
		return a.eval(e.X)
	case *ast.TypeAssertExpr:
		return a.eval(e.X)
	case *ast.CompositeLit:
		return a.evalComposite(e)
	}
	return 0
}

// evalComposite joins the element masks and records struct-field stores
// (`Run{Stamp: now}` taints the Stamp field exactly like an assignment).
func (a *taintAnalysis) evalComposite(lit *ast.CompositeLit) taintMask {
	var m taintMask
	st := structOf(a.pkg.Info.TypeOf(lit))
	for i, elt := range lit.Elts {
		var fld *types.Var
		val := elt
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			val = kv.Value
			if key, ok := kv.Key.(*ast.Ident); ok {
				fld, _ = a.pkg.Info.Uses[key].(*types.Var)
			}
		} else if st != nil && i < st.NumFields() {
			fld = st.Field(i)
		}
		em := a.eval(val)
		m |= em
		if fld != nil {
			if em.kinds() != 0 {
				a.tf.setFieldTaint(fld, em.kinds())
			}
			if em.inputs() != 0 {
				a.noteFieldFlow(em.inputs(), fld)
			}
		}
	}
	return m
}

// evalCall applies the call transfer function: sources introduce taint,
// local callees are resolved through their summaries (mapping callee
// input bits back to argument masks), sinks consume taint and report or
// summarize, and unknown callees conservatively join receiver and
// argument masks.
func (a *taintAnalysis) evalCall(call *ast.CallExpr) taintMask {
	// Conversions pass taint through unchanged.
	if tv, ok := a.pkg.Info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			return a.eval(call.Args[0])
		}
		return 0
	}
	fn := calleeFunc(a.pkg.Info, call)
	if fn == nil {
		// Builtin or call through a function value: join everything — a
		// stored time.Now called later stays caught.
		m := a.eval(call.Fun)
		for _, arg := range call.Args {
			m |= a.eval(arg)
		}
		return m
	}
	if k := sourceKind(fn); k != 0 {
		return taintMask(k)
	}

	args := a.callInputs(call, fn)

	if desc := sinkOf(fn); desc != "" {
		for _, arg := range call.Args {
			am := a.eval(arg)
			if k := am.kinds(); k != 0 && a.report != nil {
				a.report(arg, "%s-tainted value reaches %s; exported results must be deterministic (derive the value from simulation state, or seed it)", k, desc)
			}
			if am.inputs() != 0 {
				a.summary.sinkParams |= am.inputs()
			}
		}
		return 0
	}

	if sum, ok := a.tf.summaries[fn]; ok {
		// Inputs that reach a sink inside the callee: a tainted argument
		// here is the laundered flow the local pass cannot see.
		for i, am := range args {
			if sum.sinkParams&inputBit(i) == 0 {
				continue
			}
			if k := am.kinds(); k != 0 && a.report != nil {
				a.report(call, "%s-tainted argument to %s reaches a serialization sink inside it; exported results must be deterministic", k, qualifiedFuncName(fn))
			}
			a.summary.sinkParams |= am.inputs()
		}
		// Inputs the callee stores into struct fields.
		for _, flow := range sum.fieldFlows {
			for i, am := range args {
				if flow.inputs&inputBit(i) == 0 {
					continue
				}
				if am.kinds() != 0 {
					a.tf.setFieldTaint(flow.field, am.kinds())
				}
				if am.inputs() != 0 {
					a.noteFieldFlow(am.inputs(), flow.field)
				}
			}
		}
		// Return mask: callee sources pass through; callee input bits
		// resolve to the matching argument masks. Opaque timing handles
		// returned by allowlisted packages are clock-taint boundaries —
		// sanctioned wall-clock consumers, not simulation data — so their
		// own clock reads stop here (input resolution below still carries
		// a caller's clock taint through unchanged).
		m := taintMask(sum.ret.kinds())
		if clockBoundary(fn) {
			m &^= taintMask(taintClock)
		}
		for i, am := range args {
			if sum.ret&inputBit(i) != 0 {
				m |= am
			}
		}
		return m
	}

	// External callee without a summary: conservatively assume any input
	// may flow to the result (t.UnixNano(), strconv, fmt.Sprintf, ...).
	var m taintMask
	for _, am := range args {
		m |= am
	}
	return m
}

// callInputs returns the argument masks of a call in callee-input order:
// receiver first for ordinary method calls, then the positional
// arguments (method expressions T.M(recv, ...) already carry the
// receiver as args[0]).
func (a *taintAnalysis) callInputs(call *ast.CallExpr, fn *types.Func) []taintMask {
	var masks []taintMask
	sig := fn.Type().(*types.Signature)
	if sig.Recv() != nil {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if s, selOk := a.pkg.Info.Selections[sel]; !selOk || s.Kind() == types.MethodVal {
				masks = append(masks, a.eval(sel.X))
			}
		}
	}
	for _, arg := range call.Args {
		masks = append(masks, a.eval(arg))
	}
	return masks
}

// sourceKind classifies a function as a nondeterminism source.
func sourceKind(fn *types.Func) taintKind {
	if fn == nil || fn.Pkg() == nil {
		return 0
	}
	switch fn.Pkg().Path() {
	case "time":
		if wallClockFuncs[fn.Name()] {
			return taintClock
		}
	case "math/rand", "math/rand/v2":
		if globalRandFuncs[fn.Name()] && fn.Type().(*types.Signature).Recv() == nil {
			return taintRand
		}
	case "os":
		if envFuncs[fn.Name()] {
			return taintEnv
		}
	}
	return 0
}

// sinkOf reports whether fn is a serialization sink — a function whose
// arguments end up in an ordered artifact — and names it for messages.
func sinkOf(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil || !fn.Exported() {
		return ""
	}
	path := fn.Pkg().Path()
	switch {
	case pathHasSuffix(path, "internal/golden"), pathHasSuffix(path, "internal/report"):
		return qualifiedFuncName(fn)
	case pathHasSuffix(path, "internal/journal") && fn.Name() == "Append":
		return qualifiedFuncName(fn)
	case pathHasSuffix(path, "internal/runcache") && fn.Name() == "Put":
		return qualifiedFuncName(fn)
	}
	return ""
}

// qualifiedFuncName renders pkg.Func or pkg.Type.Method for messages.
func qualifiedFuncName(fn *types.Func) string {
	name := fn.Name()
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			name = named.Obj().Name() + "." + name
		}
	}
	if fn.Pkg() != nil {
		name = fn.Pkg().Name() + "." + name
	}
	return name
}

// objOf resolves an identifier to its object, whether defined or used
// here.
func objOf(info *types.Info, id *ast.Ident) types.Object {
	if obj := info.Uses[id]; obj != nil {
		return obj
	}
	return info.Defs[id]
}

// structOf unwraps a (pointer to a) struct type.
func structOf(t types.Type) *types.Struct {
	if t == nil {
		return nil
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	st, _ := t.Underlying().(*types.Struct)
	return st
}

func (a *NDTaint) Check(prog *Program, pkg *Package) []Diagnostic {
	facts := prog.Facts()
	tf := facts.taintFor()

	var diags []Diagnostic
	seen := map[string]bool{}
	report := func(n ast.Node, format string, args ...any) {
		d := Diagnostic{Pos: prog.Fset.Position(n.Pos()), Analyzer: a.Name(), Message: fmt.Sprintf(format, args...)}
		key := d.Pos.String() + d.Message
		if !seen[key] {
			seen[key] = true
			diags = append(diags, d)
		}
	}

	allowed := allowlisted(pkg)

	// Interprocedural pass: re-run each function's local analysis in
	// report mode against the solved global facts, so sink findings land
	// at the call that feeds the exporter. Allowlisted packages are where
	// the clock may be *read*; a flow that terminates inside one is
	// progress reporting, not data.
	if !allowed {
		for _, fi := range facts.PkgFuncs(pkg) {
			an := tf.analysisFor(fi)
			an.solve()
			an.report = report
			an.walk()
		}
	}

	// Local passes, unchanged from the old determinism analyzer: blanket
	// source checks and map-iteration order feeding ordered output.
	for _, f := range pkg.Files {
		if !allowed {
			ast.Inspect(f, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				fn, ok := pkg.Info.Uses[id].(*types.Func)
				if !ok || fn.Pkg() == nil {
					return true
				}
				switch fn.Pkg().Path() {
				case "time":
					if wallClockFuncs[fn.Name()] {
						report(id, "time.%s reads the wall clock; simulation/export code must be deterministic (allowlist: %v)",
							fn.Name(), wallClockAllowlist)
					}
				case "math/rand", "math/rand/v2":
					if globalRandFuncs[fn.Name()] && fn.Type().(*types.Signature).Recv() == nil {
						report(id, "rand.%s draws from the global math/rand source; use a seeded rand.New(rand.NewSource(seed))",
							fn.Name())
					}
				}
				return true
			})
		}

		funcBodies(f, func(owner ast.Node, body *ast.BlockStmt) {
			ast.Inspect(body, func(n ast.Node) bool {
				rng, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				tv, ok := pkg.Info.Types[rng.X]
				if !ok {
					return true
				}
				if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
					return true
				}
				a.checkMapRange(prog, pkg, body, rng, report)
				return true
			})
		})
	}
	return diags
}

// checkMapRange flags ordered-output operations inside a range-over-map
// body. funcBody is the whole body of the enclosing function, searched for
// a later sort call that would launder the order.
func (a *NDTaint) checkMapRange(prog *Program, pkg *Package, funcBody *ast.BlockStmt, rng *ast.RangeStmt, report func(ast.Node, string, ...any)) {
	// Method names whose call inside the loop emits or accumulates ordered
	// output. The Add* family is only ordered on the row/cell builders in
	// internal/report and internal/golden — counters.Set.Add is a
	// commutative increment and must stay legal — so those match only when
	// the receiver's type lives in one of the ordered-output packages.
	// Encoders and writers are ordered wherever they appear.
	orderedAppends := map[string]bool{
		"Add": true, "AddF": true, "AddTol": true, "AddUnit": true,
	}
	orderedWriters := map[string]bool{
		"Encode": true, "Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
	}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if fn := calleeFunc(pkg.Info, n); fn != nil {
				if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" && isPrintName(fn.Name()) {
					report(n, "fmt.%s inside range over map emits in nondeterministic order; iterate sorted keys", fn.Name())
					return true
				}
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok && fn.Type().(*types.Signature).Recv() != nil {
					ordered := orderedWriters[fn.Name()] ||
						(orderedAppends[fn.Name()] && recvInOrderedPackage(fn))
					if ordered {
						report(n, "%s.%s inside range over map appends in nondeterministic order; iterate sorted keys",
							exprString(sel.X), fn.Name())
						return true
					}
				}
			}
		case *ast.AssignStmt:
			// v = append(v, ...) growing a slice declared outside the loop.
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, rhs := range n.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok {
					continue
				}
				id, ok := ast.Unparen(call.Fun).(*ast.Ident)
				if !ok || id.Name != "append" {
					continue
				}
				if _, builtin := pkg.Info.Uses[id].(*types.Builtin); !builtin {
					continue
				}
				obj := assignedObj(pkg.Info, n.Lhs[i])
				if obj == nil {
					continue
				}
				// Declared inside the loop: order cannot escape.
				if obj.Pos() >= rng.Body.Pos() && obj.Pos() <= rng.Body.End() {
					continue
				}
				// Sorted after the loop in the same function: order is
				// laundered before anyone observes it.
				if sortedAfter(pkg.Info, funcBody, rng, obj) {
					continue
				}
				report(n, "append to %q under range over map collects in nondeterministic order; sort the keys first or sort %q afterwards",
					obj.Name(), obj.Name())
			}
		}
		return true
	})
}

// orderedPackages are the package path suffixes whose Add* builder
// methods accumulate ordered rows/cells.
var orderedPackages = []string{"internal/report", "internal/golden"}

// recvInOrderedPackage reports whether a method's receiver type is
// declared in one of the ordered-output packages.
func recvInOrderedPackage(fn *types.Func) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	for _, p := range orderedPackages {
		if pathHasSuffix(named.Obj().Pkg().Path(), p) {
			return true
		}
	}
	return false
}

// isPrintName reports whether a fmt function name writes output (Sprint*
// only formats, so it does not count).
func isPrintName(name string) bool {
	switch name {
	case "Print", "Printf", "Println", "Fprint", "Fprintf", "Fprintln":
		return true
	}
	return false
}

// assignedObj resolves the variable object behind an assignment target
// identifier, or nil for anything more structured.
func assignedObj(info *types.Info, lhs ast.Expr) types.Object {
	id, ok := ast.Unparen(lhs).(*ast.Ident)
	if !ok {
		return nil
	}
	if obj := info.Defs[id]; obj != nil {
		return obj
	}
	return info.Uses[id]
}

// sortedAfter reports whether obj is passed to a sort/slices call after
// the range statement within the enclosing function body — the
// collect-then-sort idiom.
func sortedAfter(info *types.Info, funcBody *ast.BlockStmt, rng *ast.RangeStmt, obj types.Object) bool {
	found := false
	ast.Inspect(funcBody, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() {
			return true
		}
		fn := calleeFunc(info, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		if p := fn.Pkg().Path(); p != "sort" && p != "slices" {
			return true
		}
		for _, arg := range call.Args {
			used := false
			ast.Inspect(arg, func(an ast.Node) bool {
				if id, ok := an.(*ast.Ident); ok && info.Uses[id] == obj {
					used = true
				}
				return !used
			})
			if used {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// exprString renders a short receiver expression for messages.
func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	default:
		return "receiver"
	}
}
