package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Dimension infers physical dimensions for the values feeding the paper's
// derived metrics and flags arithmetic that cannot be dimensionally
// coherent. The nine Figure-2/4 quantities mix five base dimensions —
// core cycles, nanoseconds, seconds, bytes, and counted events — and a
// formula that adds nanoseconds to cycles or multiplies two durations
// produces a number that still *looks* plausible in a table, which is
// exactly how a silent unit bug reaches a golden artifact.
//
// Dimensions are seeded from ground truth, not guessed per expression:
//
//   - internal/units constants and the units.Frequency conversion methods
//     (GHz is cycles/second, NsPerSecond is ns/second, Nanoseconds()
//     returns ns, Cycles() returns cycles, ...)
//   - counters: Set.Get dimensions by Event constant name (…Bytes events
//     are bytes, …Cycles events are cycles, the rest are counted events),
//     and the Metrics fields by their documented meaning (CPI is
//     cycles/event, the rates and percentages are dimensionless)
//   - time.Duration values (ns) and the stats.Ratio quotient
//   - naming conventions on declared variables, fields, parameters, and
//     results: …Ns, …Cycles, …Bytes, …Size, …Seconds, …BW, …Hz, …Freq,
//     and …PerSecond/…PerCycle compositions
//
// and propagated through assignments, arithmetic, conversions, and local
// call summaries (a function returning freq.Nanoseconds(c) returns ns to
// its callers). Three shapes are reported:
//
//   - mixed-dimension + or - (ns + cycles)
//   - products whose result squares a time base or multiplies two
//     different time bases (ns·cycles has no physical meaning here)
//   - a value of one known dimension assigned to a variable or field
//     whose declared dimension differs (latencyNs = cycles)
//
// Untyped numeric literals are scalars: they adapt to either operand, so
// `lat + 1` and `2.8 * units.GHz` stay legal. internal/units itself is
// exempt — it is where raw conversion factors legitimately live.
type Dimension struct{}

func (*Dimension) Name() string { return "dimension" }
func (*Dimension) Doc() string {
	return "infer cycles/ns/bytes/events dimensions and flag incoherent arithmetic feeding derived metrics"
}

// Dim is a dimension vector: integer exponents over the five base
// dimensions. The zero vector with known=true is a genuine dimensionless
// ratio; known=false is "no information" and never participates in
// checks.
type Dim struct {
	known             bool
	ns, s, cy, by, ev int8
}

var (
	dimNone    = Dim{}
	dimScalar  = Dim{known: true}
	dimNs      = Dim{known: true, ns: 1}
	dimSeconds = Dim{known: true, s: 1}
	dimCycles  = Dim{known: true, cy: 1}
	dimBytes   = Dim{known: true, by: 1}
	dimEvents  = Dim{known: true, ev: 1}
	dimHz      = Dim{known: true, cy: 1, s: -1} // clock rate: cycles per second
	dimBW      = Dim{known: true, by: 1, s: -1} // bandwidth: bytes per second
)

func (d Dim) mul(o Dim) Dim {
	if !d.known || !o.known {
		return dimNone
	}
	return Dim{true, d.ns + o.ns, d.s + o.s, d.cy + o.cy, d.by + o.by, d.ev + o.ev}
}

func (d Dim) div(o Dim) Dim {
	if !d.known || !o.known {
		return dimNone
	}
	return Dim{true, d.ns - o.ns, d.s - o.s, d.cy - o.cy, d.by - o.by, d.ev - o.ev}
}

// suspiciousProduct reports whether a product's dimension is physically
// meaningless in this codebase: a squared time base, or two different
// time bases multiplied together (ns·cycles, cycles·seconds, ...).
func (d Dim) suspiciousProduct() bool {
	if !d.known {
		return false
	}
	timeBases := 0
	for _, e := range []int8{d.ns, d.s, d.cy} {
		if e >= 2 || e <= -2 {
			return true
		}
		if e > 0 {
			timeBases++
		}
	}
	return timeBases >= 2
}

// String renders the dimension for messages ("ns", "cycles/event",
// "bytes/s", "dimensionless").
func (d Dim) String() string {
	if !d.known {
		return "unknown"
	}
	bases := []struct {
		name string
		exp  int8
	}{{"ns", d.ns}, {"s", d.s}, {"cycles", d.cy}, {"bytes", d.by}, {"events", d.ev}}
	var num, den []string
	for _, b := range bases {
		switch {
		case b.exp == 1:
			num = append(num, b.name)
		case b.exp > 1:
			num = append(num, fmt.Sprintf("%s^%d", b.name, b.exp))
		case b.exp == -1:
			den = append(den, b.name)
		case b.exp < -1:
			den = append(den, fmt.Sprintf("%s^%d", b.name, -b.exp))
		}
	}
	switch {
	case len(num) == 0 && len(den) == 0:
		return "dimensionless"
	case len(num) == 0:
		return "1/" + strings.Join(den, "/")
	case len(den) == 0:
		return strings.Join(num, "·")
	default:
		return strings.Join(num, "·") + "/" + strings.Join(den, "/")
	}
}

// dimFacts caches the interprocedural result-dimension summaries: for
// each declared function, the inferred dimension of each result.
type dimFacts struct {
	results map[*types.Func][]Dim
}

// dimsFor solves the module-wide result-dimension summaries, iterating
// bottom-up over the call graph until stable so chains of helpers
// propagate (Latency returns Nanoseconds()/n returns ns).
func (f *Facts) dimsFor() *dimFacts {
	if f.dims != nil {
		return f.dims
	}
	df := &dimFacts{results: map[*types.Func][]Dim{}}
	f.dims = df // visible to the solver below for recursive lookups
	for sweep := 0; sweep < 4; sweep++ {
		changed := false
		for _, fi := range f.Funcs {
			a := newDimAnalysis(fi, df)
			a.solve()
			res := a.resultDims()
			old := df.results[fi.Fn]
			if !dimSliceEq(old, res) {
				df.results[fi.Fn] = res
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return df
}

func dimSliceEq(a, b []Dim) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// dimAnalysis is the per-function inference pass: an environment mapping
// local objects to dimensions, seeded from declarations and iterated to a
// local fixed point.
type dimAnalysis struct {
	fi   *FuncInfo
	pkg  *Package
	df   *dimFacts
	env  map[types.Object]Dim
	rets [][]ast.Expr

	report func(n ast.Node, format string, args ...any)
}

func newDimAnalysis(fi *FuncInfo, df *dimFacts) *dimAnalysis {
	a := &dimAnalysis{fi: fi, pkg: fi.Pkg, df: df, env: map[types.Object]Dim{}}
	sig := fi.Fn.Type().(*types.Signature)
	seed := func(v *types.Var) {
		if d := declaredDim(v); d.known {
			a.env[v] = d
		}
	}
	if recv := sig.Recv(); recv != nil {
		seed(recv)
	}
	for i := 0; i < sig.Params().Len(); i++ {
		seed(sig.Params().At(i))
	}
	for i := 0; i < sig.Results().Len(); i++ {
		seed(sig.Results().At(i))
	}
	return a
}

func (a *dimAnalysis) solve() {
	for pass := 0; pass < 6; pass++ {
		before := len(a.env)
		var same = true
		snap := make(map[types.Object]Dim, len(a.env))
		for k, v := range a.env {
			snap[k] = v
		}
		a.walk()
		if len(a.env) != before {
			same = false
		} else {
			for k, v := range a.env {
				if snap[k] != v {
					same = false
					break
				}
			}
		}
		if same {
			break
		}
	}
}

// resultDims infers the dimensions of the function's results from its
// return statements (the summary callers consume).
func (a *dimAnalysis) resultDims() []Dim {
	sig := a.fi.Fn.Type().(*types.Signature)
	n := sig.Results().Len()
	if n == 0 {
		return nil
	}
	out := make([]Dim, n)
	for i := 0; i < n; i++ {
		if d := declaredDim(sig.Results().At(i)); d.known {
			out[i] = d
		}
	}
	for _, results := range a.rets {
		if len(results) != n {
			continue
		}
		for i, res := range results {
			if d := a.eval(res); d.known && !out[i].known {
				out[i] = d
			}
		}
	}
	return out
}

// walk applies the transfer functions over the body, collecting return
// statements for the summary and (in report mode) emitting findings.
func (a *dimAnalysis) walk() {
	a.rets = a.rets[:0]
	var lits []*ast.FuncLit
	ast.Inspect(a.fi.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			lits = append(lits, n)
		case *ast.AssignStmt:
			a.assign(n)
		case *ast.ReturnStmt:
			inLit := false
			for _, lit := range lits {
				if n.Pos() >= lit.Pos() && n.End() <= lit.End() {
					inLit = true
					break
				}
			}
			if !inLit && len(n.Results) > 0 {
				a.rets = append(a.rets, n.Results)
			}
		case ast.Expr:
			// Arithmetic checks fire from eval; make sure expression
			// statements and conditions are visited too.
			_ = a.eval(n)
			return false // eval recurses itself
		}
		return true
	})
}

// assign propagates the RHS dimension into the target and, when both
// sides carry a known dimension, checks them against each other.
func (a *dimAnalysis) assign(n *ast.AssignStmt) {
	if len(n.Lhs) != len(n.Rhs) {
		for _, rhs := range n.Rhs {
			_ = a.eval(rhs)
		}
		return
	}
	for i := range n.Lhs {
		rhs := a.eval(n.Rhs[i])
		switch n.Tok {
		case token.ADD_ASSIGN, token.SUB_ASSIGN:
			lhs := a.evalTarget(n.Lhs[i])
			if incompatible(lhs, rhs) {
				a.reportf(n, "mixed-dimension %s: %s %s= %s", n.Tok, lhs, string(n.Tok.String()[0]), rhs)
			}
			continue
		case token.MUL_ASSIGN:
			lhs := a.evalTarget(n.Lhs[i])
			if p := lhs.mul(rhs); p.suspiciousProduct() {
				a.reportf(n, "suspicious product: %s *= %s yields %s, which has no physical meaning here", lhs, rhs, p)
			}
			continue
		case token.ASSIGN, token.DEFINE:
		default:
			continue
		}
		a.applyDim(n.Lhs[i], rhs, n.Rhs[i], n)
	}
}

// applyDim stores an inferred dimension into the target object and checks
// it against the target's declared dimension.
func (a *dimAnalysis) applyDim(target ast.Expr, d Dim, rhs ast.Expr, at ast.Node) {
	switch t := ast.Unparen(target).(type) {
	case *ast.Ident:
		obj := assignedObj(a.pkg.Info, t)
		v, ok := obj.(*types.Var)
		if !ok {
			return
		}
		if want := declaredDim(v); incompatible(want, d) {
			a.reportf(at, "assigning %s expression to %q, which is declared/named as %s", d, v.Name(), want)
			return
		}
		if d.known {
			a.env[v] = d
		}
	case *ast.SelectorExpr:
		if s, ok := a.pkg.Info.Selections[t]; ok && s.Kind() == types.FieldVal {
			if fld, ok := s.Obj().(*types.Var); ok {
				if want := declaredDim(fld); incompatible(want, d) {
					a.reportf(at, "assigning %s expression to field %q, which is declared/named as %s", d, fld.Name(), want)
				}
			}
		}
	}
}

// evalTarget evaluates an assignment target as a value (for += / -=).
func (a *dimAnalysis) evalTarget(e ast.Expr) Dim {
	return a.eval(e)
}

// scalarExpr reports whether e is a pure scale factor that adapts to any
// dimension: a constant expression with no known dimension of its own.
// units.NsPerSecond is constant but NOT scalar — it carries ns/s and must
// participate in dimension arithmetic.
func (a *dimAnalysis) scalarExpr(e ast.Expr) bool {
	tv, ok := a.pkg.Info.Types[e]
	return ok && tv.Value != nil && !a.eval(e).known
}

// incompatible reports a genuine dimension clash: both sides known,
// different, and neither a bare scalar — a dimensionless factor (a ratio,
// units.GB scaling a GB/s figure) may combine with anything.
func incompatible(a, b Dim) bool {
	return a.known && b.known && a != b && a != dimScalar && b != dimScalar
}

// eval infers the dimension of an expression, emitting findings at
// incoherent arithmetic when in report mode.
func (a *dimAnalysis) eval(e ast.Expr) Dim {
	switch e := e.(type) {
	case nil:
		return dimNone
	case *ast.Ident:
		obj := objOf(a.pkg.Info, e)
		if v, ok := obj.(*types.Var); ok {
			if d, ok := a.env[v]; ok {
				return d
			}
			return declaredDim(v)
		}
		if c, ok := obj.(*types.Const); ok {
			return constDim(c)
		}
		return dimNone
	case *ast.SelectorExpr:
		if s, ok := a.pkg.Info.Selections[e]; ok && s.Kind() == types.FieldVal {
			_ = a.eval(e.X)
			if fld, ok := s.Obj().(*types.Var); ok {
				return declaredDim(fld)
			}
			return dimNone
		}
		if c, ok := a.pkg.Info.Uses[e.Sel].(*types.Const); ok {
			return constDim(c)
		}
		if v, ok := a.pkg.Info.Uses[e.Sel].(*types.Var); ok {
			return declaredDim(v)
		}
		return dimNone
	case *ast.BinaryExpr:
		return a.evalBinary(e)
	case *ast.CallExpr:
		return a.evalCall(e)
	case *ast.ParenExpr:
		return a.eval(e.X)
	case *ast.UnaryExpr:
		return a.eval(e.X)
	case *ast.StarExpr:
		return a.eval(e.X)
	case *ast.IndexExpr:
		_ = a.eval(e.Index)
		return a.eval(e.X)
	case *ast.CompositeLit:
		return a.evalComposite(e)
	case *ast.TypeAssertExpr:
		return a.eval(e.X)
	case *ast.BasicLit:
		return dimNone // untyped literal: adapts to context
	}
	return dimNone
}

func (a *dimAnalysis) evalBinary(e *ast.BinaryExpr) Dim {
	x, y := a.eval(e.X), a.eval(e.Y)
	xScalar, yScalar := a.scalarExpr(e.X), a.scalarExpr(e.Y)
	switch e.Op {
	case token.ADD, token.SUB:
		if incompatible(x, y) && !xScalar && !yScalar {
			a.reportf(e, "mixed-dimension %s: %s %s %s; convert through internal/units first", opName(e.Op), x, e.Op, y)
			return dimNone
		}
		// Prefer the more specific operand's dimension.
		if x.known && x != dimScalar {
			return x
		}
		if y.known && y != dimScalar {
			return y
		}
		if x.known {
			return x
		}
		return y
	case token.MUL:
		// A scalar operand rescales without touching the dimension.
		if xScalar {
			return y
		}
		if yScalar {
			return x
		}
		p := x.mul(y)
		if p.suspiciousProduct() {
			a.reportf(e, "suspicious product: %s * %s yields %s, which has no physical meaning here", x, y, p)
			return dimNone
		}
		return p
	case token.QUO:
		if yScalar {
			return x
		}
		if xScalar && y.known {
			return dimScalar.div(y)
		}
		q := x.div(y)
		if x.known && y.known && crossTimeQuotient(x, y) {
			a.reportf(e, "quotient %s / %s mixes clock and wall time without a units.Frequency conversion", x, y)
			return dimNone
		}
		return q
	case token.REM, token.SHL, token.SHR:
		return x
	default:
		return dimNone // comparisons, logic, bit ops: no dimension
	}
}

// crossTimeQuotient reports a division of pure cycles by pure
// nanoseconds or vice versa — a frequency in disguise that must go
// through units.Frequency instead.
func crossTimeQuotient(x, y Dim) bool {
	pureCy := Dim{known: true, cy: 1}
	pureNs := Dim{known: true, ns: 1}
	return (x == pureCy && y == pureNs) || (x == pureNs && y == pureCy)
}

func (a *dimAnalysis) evalComposite(lit *ast.CompositeLit) Dim {
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
		d := a.eval(val)
		if fld != nil {
			if want := declaredDim(fld); incompatible(want, d) {
				a.reportf(val, "field %q is declared/named as %s but initialized with a %s expression", fld.Name(), want, d)
			}
		}
	}
	return dimNone
}

// evalCall resolves conversions, the well-known dimension transformers,
// and local function summaries; everything else evaluates arguments for
// checks but yields no dimension.
func (a *dimAnalysis) evalCall(call *ast.CallExpr) Dim {
	if tv, ok := a.pkg.Info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			d := a.eval(call.Args[0])
			if d.known {
				return d
			}
			return typeDim(tv.Type)
		}
		return dimNone
	}
	fn := calleeFunc(a.pkg.Info, call)
	for _, arg := range call.Args {
		_ = a.eval(arg) // visit for nested checks
	}
	if fn == nil {
		return dimNone
	}
	if d, ok := a.wellKnownCall(call, fn); ok {
		return d
	}
	if res, ok := a.df.results[fn]; ok && len(res) > 0 {
		return res[0]
	}
	return dimNone
}

// wellKnownCall hard-codes the dimension contracts of the conversion and
// counter layers, the ground truth everything else is checked against.
func (a *dimAnalysis) wellKnownCall(call *ast.CallExpr, fn *types.Func) (Dim, bool) {
	if fn.Pkg() == nil {
		return dimNone, false
	}
	path := fn.Pkg().Path()
	switch {
	case pathHasSuffix(path, "internal/units"):
		switch fn.Name() {
		case "Nanoseconds":
			return dimNs, true
		case "Cycles", "OccupancyCycles":
			return dimCycles, true
		case "BytesPerCycle":
			return Dim{known: true, by: 1, cy: -1}, true
		}
	case path == "time":
		switch fn.Name() {
		case "Seconds":
			return dimSeconds, true
		case "Nanoseconds":
			return dimNs, true
		}
	case fn.Name() == "Ratio" && pathHasSuffix(path, "internal/stats"):
		if len(call.Args) == 2 {
			x, y := a.eval(call.Args[0]), a.eval(call.Args[1])
			if x.known && y.known {
				return x.div(y), true
			}
		}
		return dimNone, true
	case fn.Name() == "Get" && isCountersSet(fn):
		if len(call.Args) == 1 {
			return eventDim(a.pkg.Info, call.Args[0]), true
		}
	}
	// time.Duration methods: a Duration is ns at heart.
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil && fn.Pkg().Path() == "time" {
		switch fn.Name() {
		case "Seconds":
			return dimSeconds, true
		case "Nanoseconds", "Sub":
			return dimNs, true
		}
	}
	return dimNone, false
}

// isCountersSet reports whether fn is a method of the counters Set type.
func isCountersSet(fn *types.Func) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil || fn.Pkg() == nil || fn.Pkg().Name() != "counters" {
		return false
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "Set"
}

// eventDim maps a counters.Event constant to the dimension it counts.
func eventDim(info *types.Info, arg ast.Expr) Dim {
	var name string
	switch e := ast.Unparen(arg).(type) {
	case *ast.Ident:
		name = e.Name
	case *ast.SelectorExpr:
		name = e.Sel.Name
	default:
		return dimEvents
	}
	switch {
	case strings.HasSuffix(name, "Bytes"):
		return dimBytes
	case strings.HasSuffix(name, "Cycles") || name == "Cycles":
		return dimCycles
	default:
		return dimEvents
	}
}

// constDim seeds dimensions from the internal/units constants — the
// canonical names the whole dimension system is anchored on.
func constDim(c *types.Const) Dim {
	if c.Pkg() != nil && pathHasSuffix(c.Pkg().Path(), "internal/units") {
		switch c.Name() {
		case "KHz", "MHz", "GHz":
			return dimHz
		case "KiB", "MiB", "GiB":
			return dimBytes
		case "NsPerSecond":
			return Dim{known: true, ns: 1, s: -1}
		case "GB":
			// A numeric prefix: GB scales GB/s figures into bytes/s; it
			// is a scale factor, not a quantity.
			return dimScalar
		}
	}
	return nameDim(c.Name())
}

// declaredDim derives a variable's dimension from its type or name.
func declaredDim(v *types.Var) Dim {
	if v == nil {
		return dimNone
	}
	if d := typeDim(v.Type()); d.known {
		return d
	}
	// counters.Metrics fields carry their documented meanings.
	if ownerIsMetrics(v) {
		switch v.Name() {
		case "CPI":
			return Dim{known: true, cy: 1, ev: -1}
		case "DTLBMisses":
			return dimEvents
		default:
			return dimScalar // the rates and percentages
		}
	}
	return nameDim(v.Name())
}

// ownerIsMetrics reports whether v is a field of the counters Metrics
// struct.
func ownerIsMetrics(v *types.Var) bool {
	if !v.IsField() || v.Pkg() == nil || v.Pkg().Name() != "counters" {
		return false
	}
	obj := v.Pkg().Scope().Lookup("Metrics")
	if obj == nil {
		return false
	}
	st, ok := obj.Type().Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if st.Field(i) == v {
			return true
		}
	}
	return false
}

// typeDim maps well-known named types to dimensions.
func typeDim(t types.Type) Dim {
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return dimNone
	}
	pkg, name := named.Obj().Pkg().Path(), named.Obj().Name()
	switch {
	case pkg == "time" && name == "Duration":
		return dimNs
	case pathHasSuffix(pkg, "internal/units") && name == "Frequency":
		return dimHz
	}
	return dimNone
}

// nameDim derives a dimension from an identifier's naming convention: an
// exact lowercase name ("ns", "cycles") or a camel-case suffix with a
// word boundary ("LatencyNs", "memReadBytes"). Anything else is unknown —
// a wrong guess here would manufacture false findings.
func nameDim(name string) Dim {
	suffixes := []struct {
		suffix string
		dim    Dim
	}{
		{"PerSecond", dimNone}, // resolved below against the remainder
		{"PerCycle", dimNone},
		{"Ns", dimNs},
		{"Nanos", dimNs},
		{"Cycles", dimCycles},
		{"Bytes", dimBytes},
		{"Size", dimBytes},
		{"Seconds", dimSeconds},
		{"Secs", dimSeconds},
		{"BW", dimBW},
		{"Bandwidth", dimBW},
		{"Hz", dimHz},
		{"Freq", dimHz},
	}
	lower := strings.ToLower(name)
	for _, s := range suffixes {
		sl := strings.ToLower(s.suffix)
		if lower == sl {
			return resolveNameDim(s.suffix, "")
		}
		if strings.HasSuffix(name, s.suffix) && len(name) > len(s.suffix) {
			prev := name[len(name)-len(s.suffix)-1]
			// Require a camel-case boundary so "columns" never reads as
			// "...Ns".
			if s.suffix[0] >= 'A' && s.suffix[0] <= 'Z' && (prev < 'A' || prev > 'Z') {
				return resolveNameDim(s.suffix, name[:len(name)-len(s.suffix)])
			}
		}
	}
	return dimNone
}

// resolveNameDim handles the compositional suffixes: BytesPerSecond,
// CyclesPerSecond, and friends.
func resolveNameDim(suffix, rest string) Dim {
	switch suffix {
	case "PerSecond":
		if base := nameDim(strings.Title(rest)); base.known { //nolint — ascii identifiers only
			return base.div(dimSeconds)
		}
		return dimNone
	case "PerCycle":
		if base := nameDim(strings.Title(rest)); base.known {
			return base.div(dimCycles)
		}
		return dimNone
	case "Ns", "Nanos":
		return dimNs
	case "Cycles":
		return dimCycles
	case "Bytes", "Size":
		return dimBytes
	case "Seconds", "Secs":
		return dimSeconds
	case "BW", "Bandwidth":
		return dimBW
	case "Hz", "Freq":
		return dimHz
	}
	return dimNone
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

func opName(op token.Token) string {
	if op == token.ADD {
		return "addition"
	}
	return "subtraction"
}

func (a *dimAnalysis) reportf(n ast.Node, format string, args ...any) {
	if a.report != nil {
		a.report(n, format, args...)
	}
}

func (a *Dimension) Check(prog *Program, pkg *Package) []Diagnostic {
	// internal/units is where raw conversion factors live; checking it
	// against itself would be circular.
	if pathHasSuffix(pkg.Path, unitsPackage) {
		return nil
	}
	facts := prog.Facts()
	df := facts.dimsFor()

	var diags []Diagnostic
	seen := map[string]bool{}
	for _, fi := range facts.PkgFuncs(pkg) {
		an := newDimAnalysis(fi, df)
		an.solve()
		an.report = func(n ast.Node, format string, args ...any) {
			d := Diagnostic{Pos: prog.Fset.Position(n.Pos()), Analyzer: a.Name(), Message: fmt.Sprintf(format, args...)}
			key := d.Pos.String() + d.Message
			if !seen[key] {
				seen[key] = true
				diags = append(diags, d)
			}
		}
		an.walk()
	}
	return diags
}
