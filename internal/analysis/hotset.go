package analysis

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// This file is the hot-set fact layer the hotalloc analyzer keys on. The
// set is rooted in //xeonlint:hot directives on the engine's hot
// functions and grows along calls made inside hot loops. The checked-in
// CPU profile (cmd/xeonchar/default.pgo) stays the evidence for where the
// roots belong: scripts/pgo-freshness.sh reads it with `go tool pprof`
// and fails when a function holding at least 1% flat is missing here.

// hotDirective is the comment that puts a function in the hot set,
// written in the function's doc comment:
//
//	//xeonlint:hot <optional reason>
const hotDirective = "//xeonlint:hot"

// HotFunc is one member of the hot set, for reports and tests.
type HotFunc struct {
	Fn   *types.Func
	Name string // pprof-style qualified name
	// Reason explains membership: the //xeonlint:hot directive, or the
	// hot loop that calls it.
	Reason string
}

// hotFacts is the solved hot set: the analyzers' shared view of where the
// module spends its time.
type hotFacts struct {
	// hot is the hot set with the reason each member joined.
	hot map[*types.Func]string
	// loopHot marks functions that are hot because a hot loop calls
	// them: their whole body executes per iteration, so the analyzers
	// treat every statement in them as loop-level.
	loopHot map[*types.Func]bool
}

// hotFor solves the hot set once per Program: seed from //xeonlint:hot
// directives, then propagate through calls made inside hot loops.
func (f *Facts) hotFor() *hotFacts {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.hotf != nil {
		return f.hotf
	}
	hf := &hotFacts{
		hot:     map[*types.Func]string{},
		loopHot: map[*types.Func]bool{},
	}

	for _, fi := range f.Funcs {
		if fi.Decl.Doc == nil {
			continue
		}
		for _, c := range fi.Decl.Doc.List {
			if c.Text == hotDirective || strings.HasPrefix(c.Text, hotDirective+" ") {
				hf.hot[fi.Fn] = "marked " + hotDirective
			}
		}
	}

	// Propagate along hot-loop calls: a module function called from
	// inside a loop of a hot function runs per iteration, so it is hot
	// too, and its whole body counts as loop context. Fixpoint over the
	// call sites, since the propagated functions have loops of their own.
	// Calls a directive root makes outside its loops do not propagate.
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

// HotFunctions returns the solved hot set sorted by name — the
// -hot-report and freshness-gate view.
func (p *Program) HotFunctions() []HotFunc {
	hf := p.Facts().hotFor()
	out := make([]HotFunc, 0, len(hf.hot))
	for fn, reason := range hf.hot {
		out = append(out, HotFunc{Fn: fn, Name: pprofName(fn), Reason: reason})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// pprofName renders a declared function the way pprof spells it:
// "pkg/path.Func", "pkg/path.(*Recv).Method", "pkg/path.Recv.Method" —
// the names -hot-report prints and scripts/pgo-freshness.sh matches
// profile frames against.
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
