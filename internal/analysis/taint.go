package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
)

// NDTaint guards the bit-stable-output promise with local rules: outside
// the allowlist, code must not read the wall clock or the process
// environment, must not draw from the global (unseeded) math/rand source,
// and nowhere may map-iteration order reach ordered output.
//
// Flows are not tracked. A nondeterministic value that reaches an
// artifact or a rendered table by any path, allowlisted packages
// included, makes two runs of a study differ; internal/core's
// TestStudySerializationIsBitStable and the golden gate check that on the
// outputs themselves.
type NDTaint struct{}

func (*NDTaint) Name() string { return "taint" }
func (*NDTaint) Doc() string {
	return "forbid wall-clock, environment and global-rand reads outside the allowlist, and map order in ordered output"
}

// wallClockAllowlist names the packages (by path suffix) allowed to read
// the wall clock and the environment: the progress/ETA reporter, which
// exists to report real elapsed time, the observability layer, which is
// the single clock-reading choke point the rest of the tree instruments
// through (obs.StartTimer/Span) — its values flow into the metric registry
// and tracer, never into artifacts — and the wire layer (internal/api,
// internal/shard), whose timers pace retries and reconnects without
// touching payloads.
// Everything else in the tree is simulation or export code, where
// wall-clock and environment reads are nondeterminism leaking into
// results.
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
	for _, allowed := range wallClockAllowlist {
		if pathHasSuffix(pkg.Path, allowed) {
			return true
		}
	}
	return false
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

// envFuncs are the os package environment reads. The linter loads no
// test files, so tests and harnesses may still tune themselves with them.
var envFuncs = map[string]bool{"Getenv": true, "LookupEnv": true, "Environ": true}

func (a *NDTaint) Check(prog *Program, pkg *Package) []Diagnostic {
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
				case "os":
					if envFuncs[fn.Name()] {
						report(id, "os.%s reads the environment; simulation/export code must be deterministic (allowlist: %v)",
							fn.Name(), wallClockAllowlist)
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
				a.checkMapRange(pkg, body, rng, report)
				return true
			})
		})
	}
	return diags
}

// checkMapRange flags ordered-output operations inside a range-over-map
// body. funcBody is the whole body of the enclosing function, searched for
// a later sort call that would launder the order.
func (a *NDTaint) checkMapRange(pkg *Package, funcBody *ast.BlockStmt, rng *ast.RangeStmt, report func(ast.Node, string, ...any)) {
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
