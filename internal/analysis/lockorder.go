package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
)

// LockOrder is the module-wide deadlock analyzer. Each top-level body is
// walked with a held-lock set; acquisitions while holding another lock
// become edges of a module-wide acquisition graph (held -> acquired),
// with calls expanded through the per-function acquisition summaries
// (conc.go) so an A->B ordering established through a helper still gets
// its edge. Findings:
//
//   - acquisition cycles: strongly-connected components of the graph are
//     potential deadlocks, reported once per cycle at the earliest edge
//   - self-deadlock: re-acquiring a held lock, directly or by calling a
//     function whose summary acquires it
//   - lock held across blocking: a channel op, select, WaitGroup.Wait,
//     or call to a may-block function while holding a mutex stalls every
//     other holder; sync.Cond.Wait is exempt for the single lock it
//     releases
//
// It also keeps one local pattern of the retired lockcheck analyzer: loop
// goroutines writing captured variables unlocked. Locks copied by value
// are go vet's copylocks check, which make lint runs first.
type LockOrder struct{}

func (*LockOrder) Name() string { return "lockorder" }
func (*LockOrder) Doc() string {
	return "flag lock-ordering cycles, self-deadlocks, locks held across blocking ops, and unlocked loop goroutines"
}

func (a *LockOrder) Check(prog *Program, pkg *Package) []Diagnostic {
	cf := prog.Facts().concFor()
	a.solve(prog, cf)

	var diags []Diagnostic
	for _, d := range cf.lockDiags {
		if filepath.Dir(d.Pos.Filename) == pkg.Dir {
			diags = append(diags, d)
		}
	}

	// The local pattern inherited from lockcheck.
	report := func(n ast.Node, format string, args ...any) {
		diags = append(diags, Diagnostic{Pos: prog.Fset.Position(n.Pos()), Analyzer: a.Name(), Message: fmt.Sprintf(format, args...)})
	}
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ForStmt:
				a.checkLoopGoroutines(pkg, n.Body, report)
			case *ast.RangeStmt:
				a.checkLoopGoroutines(pkg, n.Body, report)
			}
			return true
		})
	}
	return diags
}

// solve runs the module-wide held-lock walk and cycle detection once per
// Program, caching the diagnostics on the shared concurrency facts.
func (a *LockOrder) solve(prog *Program, cf *concFacts) {
	if cf.lockSolved {
		return
	}
	cf.lockSolved = true

	w := &lockWalker{prog: prog, cf: cf, edges: map[[2]*types.Var]token.Pos{}}
	for _, pkg := range prog.Packages {
		w.info = pkg.Info
		for _, b := range prog.Facts().Bodies(pkg) {
			w.walkStmt(b.Block, map[*types.Var]token.Pos{})
		}
	}
	cf.lockDiags = append(cf.lockDiags, a.cycleDiags(prog, cf, w.edges)...)
}

// cycleDiags finds strongly-connected components of the acquisition graph
// and reports each once, at its earliest edge.
func (a *LockOrder) cycleDiags(prog *Program, cf *concFacts, edges map[[2]*types.Var]token.Pos) []Diagnostic {
	nodes := map[*types.Var]bool{}
	succ := map[*types.Var][]*types.Var{}
	for e := range edges {
		nodes[e[0]], nodes[e[1]] = true, true
		succ[e[0]] = append(succ[e[0]], e[1])
	}
	order := cf.sortedLockVars(nodes)
	for _, vs := range succ {
		sort.Slice(vs, func(i, j int) bool { return cf.lockName(vs[i]) < cf.lockName(vs[j]) })
	}

	// Tarjan SCC, deterministic because roots and successors are sorted.
	index := map[*types.Var]int{}
	low := map[*types.Var]int{}
	onStack := map[*types.Var]bool{}
	var stack []*types.Var
	var sccs [][]*types.Var
	next := 0
	var strongconnect func(v *types.Var)
	strongconnect = func(v *types.Var) {
		index[v], low[v] = next, next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, u := range succ[v] {
			if _, seen := index[u]; !seen {
				strongconnect(u)
				if low[u] < low[v] {
					low[v] = low[u]
				}
			} else if onStack[u] && index[u] < low[v] {
				low[v] = index[u]
			}
		}
		if low[v] == index[v] {
			var scc []*types.Var
			for {
				u := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[u] = false
				scc = append(scc, u)
				if u == v {
					break
				}
			}
			sccs = append(sccs, scc)
		}
	}
	for _, v := range order {
		if _, seen := index[v]; !seen {
			strongconnect(v)
		}
	}

	var diags []Diagnostic
	for _, scc := range sccs {
		inSCC := map[*types.Var]bool{}
		for _, v := range scc {
			inSCC[v] = true
		}
		if len(scc) == 1 && !hasEdge(edges, scc[0], scc[0]) {
			continue
		}
		// Earliest edge inside the component anchors the report.
		var at token.Position
		var from, to *types.Var
		for e, pos := range edges {
			if !inSCC[e[0]] || !inSCC[e[1]] {
				continue
			}
			p := prog.Fset.Position(pos)
			if from == nil || p.Filename < at.Filename || (p.Filename == at.Filename && p.Offset < at.Offset) {
				at, from, to = p, e[0], e[1]
			}
		}
		names := make([]string, 0, len(scc))
		for _, v := range cf.sortedLockVars(inSCC) {
			names = append(names, cf.lockName(v))
		}
		diags = append(diags, Diagnostic{Pos: at, Analyzer: a.Name(),
			Message: fmt.Sprintf("lock-order cycle among %v (edge %s -> %s here); potential deadlock — pick one acquisition order",
				names, cf.lockName(from), cf.lockName(to))})
	}
	return diags
}

func hasEdge(edges map[[2]*types.Var]token.Pos, a, b *types.Var) bool {
	_, ok := edges[[2]*types.Var{a, b}]
	return ok
}

// lockWalker tracks the held-lock set through one top-level body,
// emitting acquisition-graph edges and held-across findings into the
// shared caches.
type lockWalker struct {
	prog  *Program
	cf    *concFacts
	info  *types.Info
	edges map[[2]*types.Var]token.Pos
}

func (w *lockWalker) report(n ast.Node, format string, args ...any) {
	w.cf.lockDiags = append(w.cf.lockDiags, Diagnostic{
		Pos: w.prog.Fset.Position(n.Pos()), Analyzer: "lockorder", Message: fmt.Sprintf(format, args...)})
}

func copyHeld(held map[*types.Var]token.Pos) map[*types.Var]token.Pos {
	out := make(map[*types.Var]token.Pos, len(held))
	for k, v := range held {
		out[k] = v
	}
	return out
}

// heldNames renders the held set for messages, sorted for determinism.
func (w *lockWalker) heldNames(held map[*types.Var]token.Pos) []string {
	set := map[*types.Var]bool{}
	for v := range held {
		set[v] = true
	}
	var names []string
	for _, v := range w.cf.sortedLockVars(set) {
		names = append(names, w.cf.lockName(v))
	}
	return names
}

// walkStmt threads the held set through a statement, returning the set
// live after it. Branch bodies are explored with copies; the sequential
// spine (lock ... unlock in one block) is tracked exactly.
func (w *lockWalker) walkStmt(s ast.Stmt, held map[*types.Var]token.Pos) map[*types.Var]token.Pos {
	switch s := s.(type) {
	case nil:
		return held
	case *ast.BlockStmt:
		for _, st := range s.List {
			held = w.walkStmt(st, held)
		}
		return held
	case *ast.LabeledStmt:
		return w.walkStmt(s.Stmt, held)
	case *ast.IfStmt:
		held = w.walkStmt(s.Init, held)
		w.scanExpr(s.Cond, held)
		w.walkStmt(s.Body, copyHeld(held))
		w.walkStmt(s.Else, copyHeld(held))
		return held
	case *ast.ForStmt:
		held = w.walkStmt(s.Init, held)
		w.scanExpr(s.Cond, held)
		inner := w.walkStmt(s.Body, copyHeld(held))
		w.walkStmt(s.Post, inner)
		return held
	case *ast.RangeStmt:
		w.scanExpr(s.X, held)
		if isChanType(w.info, s.X) && len(held) > 0 {
			w.report(s, "lock %v held across range over channel %s; the receive can block every other holder",
				w.heldNames(held), exprString(s.X))
		}
		w.walkStmt(s.Body, copyHeld(held))
		return held
	case *ast.SwitchStmt:
		held = w.walkStmt(s.Init, held)
		w.scanExpr(s.Tag, held)
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				h := copyHeld(held)
				for _, e := range cc.List {
					w.scanExpr(e, h)
				}
				for _, st := range cc.Body {
					h = w.walkStmt(st, h)
				}
			}
		}
		return held
	case *ast.TypeSwitchStmt:
		held = w.walkStmt(s.Init, held)
		w.walkStmt(s.Assign, copyHeld(held))
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				h := copyHeld(held)
				for _, st := range cc.Body {
					h = w.walkStmt(st, h)
				}
			}
		}
		return held
	case *ast.SelectStmt:
		if len(held) > 0 && !selectHasDefault(s) {
			w.report(s, "lock %v held across blocking select; cancellation or a slow peer stalls every other holder",
				w.heldNames(held))
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				// The comm ops themselves are covered by the select-level
				// report; only the case bodies are walked.
				h := copyHeld(held)
				for _, st := range cc.Body {
					h = w.walkStmt(st, h)
				}
			}
		}
		return held
	case *ast.GoStmt:
		// The goroutine starts with nothing held; its args are evaluated
		// here with the current set.
		for _, arg := range s.Call.Args {
			w.scanExpr(arg, held)
		}
		if lit, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); ok {
			w.walkStmt(lit.Body, map[*types.Var]token.Pos{})
		}
		return held
	case *ast.DeferStmt:
		// Deferred unlocks release at return, not here: the held set is
		// the truth for the rest of the body. Deferred closures run with
		// an unknowable future set; walk them with a copy for their own
		// internal ordering only.
		if fn := calleeFunc(w.info, s.Call); fn != nil {
			if _, method := syncPrimitiveMethod(fn); method == "Unlock" || method == "RUnlock" {
				return held
			}
		}
		if lit, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); ok {
			w.walkStmt(lit.Body, copyHeld(held))
			return held
		}
		for _, arg := range s.Call.Args {
			w.scanExpr(arg, held)
		}
		return held
	case *ast.SendStmt:
		w.scanExpr(s.Value, held)
		if len(held) > 0 && !w.cf.bufferedAnywhere[chainObject(w.info, s.Chan)] {
			w.report(s, "lock %v held across send on unbuffered channel %s; a slow receiver stalls every other holder",
				w.heldNames(held), exprString(s.Chan))
		}
		return held
	case *ast.ExprStmt:
		return w.scanExpr(s.X, held)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			held = w.scanExpr(e, held)
		}
		for _, e := range s.Lhs {
			held = w.scanExpr(e, held)
		}
		return held
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			held = w.scanExpr(e, held)
		}
		return held
	case *ast.DeclStmt, *ast.IncDecStmt:
		ast.Inspect(s, func(n ast.Node) bool {
			if e, ok := n.(ast.Expr); ok {
				w.scanExpr(e, held)
				return false
			}
			return true
		})
		return held
	default:
		return held
	}
}

// scanExpr visits the calls and channel ops of one expression in
// evaluation order (left to right is close enough for lock tracking) and
// updates the held set for Lock/Unlock calls.
func (w *lockWalker) scanExpr(e ast.Expr, held map[*types.Var]token.Pos) map[*types.Var]token.Pos {
	if e == nil {
		return held
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// A literal passed as a value may run while the caller's locks
			// are held (s.withLock(func(){...})); judge it with a copy.
			w.walkStmt(n.Body, copyHeld(held))
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && len(held) > 0 && !isDoneCall(w.info, n.X) {
				obj := chainObject(w.info, n.X)
				if !w.cf.closedAnywhere[obj] && !w.cf.bufferedAnywhere[obj] {
					w.report(n, "lock %v held across receive from %s; a silent sender stalls every other holder",
						w.heldNames(held), exprString(n.X))
				}
			}
		case *ast.CallExpr:
			w.call(n, held)
		}
		return true
	})
	return held
}

// call handles one call expression against the held set.
func (w *lockWalker) call(call *ast.CallExpr, held map[*types.Var]token.Pos) {
	fn := calleeFunc(w.info, call)
	if fn == nil {
		return
	}
	cf := w.cf
	if kind, method := syncPrimitiveMethod(fn); kind != "" {
		switch {
		case method == "Lock" || method == "RLock":
			v := lockVarOf(w.info, call)
			if v == nil {
				return
			}
			if _, already := held[v]; already {
				w.report(call, "%s acquired while already held; self-deadlock (RWMutex read locks included: a writer between them deadlocks)",
					cf.lockName(v))
				return
			}
			for h := range held {
				if graphableLock(h) && graphableLock(v) {
					k := [2]*types.Var{h, v}
					if _, ok := w.edges[k]; !ok {
						w.edges[k] = call.Pos()
					}
				}
			}
			held[v] = call.Pos()
		case method == "Unlock" || method == "RUnlock":
			if v := lockVarOf(w.info, call); v != nil {
				delete(held, v)
			}
		case kind == "Cond" && method == "Wait":
			// Wait releases the cond's one lock; holding a second lock
			// across it is the deadlock.
			if len(held) > 1 {
				w.report(call, "sync.Cond.Wait while holding %v; Wait only releases the cond's own lock",
					w.heldNames(held))
			}
		case kind == "WaitGroup" && method == "Wait":
			if len(held) > 0 {
				w.report(call, "lock %v held across WaitGroup.Wait; workers needing the lock can never finish",
					w.heldNames(held))
			}
		}
		return
	}

	fi := cf.facts.FuncOf[fn]
	if fi == nil {
		if isHTTPRoundTrip(fn) && len(held) > 0 {
			w.report(call, "lock %v held across http.%s round-trip", w.heldNames(held), fn.Name())
		}
		return
	}
	// Expand the callee's acquisition summary: a held lock the callee
	// re-acquires is a self-deadlock through the call; everything else it
	// acquires inherits edges from the held set.
	deadlocked := false
	for v := range cf.acquires[fn] {
		if _, already := held[v]; already {
			w.report(call, "calls %s while holding %s, which it acquires again; self-deadlock through the call",
				moduleFuncName(fn), cf.lockName(v))
			deadlocked = true
			continue
		}
		for h := range held {
			if graphableLock(h) && graphableLock(v) {
				k := [2]*types.Var{h, v}
				if _, ok := w.edges[k]; !ok {
					w.edges[k] = call.Pos()
				}
			}
		}
	}
	if !deadlocked && len(held) > 0 && cf.blocking[fn] {
		w.report(call, "lock %v held across call to %s, which may block", w.heldNames(held), moduleFuncName(fn))
	}
}

// checkLoopGoroutines flags `go func(){...}()` launched inside a loop
// whose body assigns to variables captured from the enclosing function
// without any locking in the goroutine body — the fan-out data race.
func (a *LockOrder) checkLoopGoroutines(pkg *Package, loopBody *ast.BlockStmt, report func(ast.Node, string, ...any)) {
	ast.Inspect(loopBody, func(n ast.Node) bool {
		gs, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		lit, ok := ast.Unparen(gs.Call.Fun).(*ast.FuncLit)
		if !ok {
			return true
		}
		if callsLock(pkg.Info, lit.Body) {
			return true
		}
		ast.Inspect(lit.Body, func(bn ast.Node) bool {
			as, ok := bn.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for _, lhs := range as.Lhs {
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok {
					continue
				}
				obj := pkg.Info.Uses[id] // Defs means := — a new, local var
				if obj == nil {
					continue
				}
				if _, isVar := obj.(*types.Var); !isVar {
					continue
				}
				// Captured: declared outside the closure.
				if obj.Pos() >= lit.Pos() && obj.Pos() <= lit.End() {
					continue
				}
				report(as, "goroutine launched in a loop writes captured variable %q without locking; guard it with a mutex or use a channel", id.Name)
			}
			return true
		})
		return true
	})
}

// callsLock reports whether the block calls any method named Lock or
// RLock.
func callsLock(info *types.Info, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if fn := calleeFunc(info, call); fn != nil && (fn.Name() == "Lock" || fn.Name() == "RLock") {
			found = true
		}
		return !found
	})
	return found
}
