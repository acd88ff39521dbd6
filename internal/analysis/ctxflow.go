package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// CtxFlow enforces that cancellation actually reaches the places that can
// block. The server era (cmd/xeond) made context.Context the lifetime
// currency of the module: a study request's ctx must be able to preempt
// every channel hand-off, cond wait, and backend call downstream of it,
// or Ctrl-C and client disconnects strand goroutines mid-cell. Four rules:
//
//   - no fresh roots: context.Background()/TODO() outside package main
//     and single-statement wrappers is a finding
//   - no dropped ctx at the frontier: a function holding a ctx parameter
//     must not call a module function that may block but accepts no
//     context — the interprocedural "ctx stops here" bug
//   - guarded hand-offs: with ctx in scope, unbuffered sends, receives
//     from never-closed channels, ranges over never-closed channels, and
//     sync.Cond.Wait without a context.AfterFunc bridge are findings
//     unless they sit inside a select with a ctx.Done() arm or default
//   - cancellable selects: a select with neither a ctx.Done() arm nor a
//     default cannot be preempted
//
// Blocking facts come from the shared concurrency summaries (conc.go),
// so helpers that block only transitively are still caught at the call.
type CtxFlow struct{}

func (*CtxFlow) Name() string { return "ctxflow" }
func (*CtxFlow) Doc() string {
	return "flag context roots, dropped ctx at blocking frontiers, and unguarded blocking ops"
}

func (a *CtxFlow) Check(prog *Program, pkg *Package) []Diagnostic {
	facts := prog.Facts()
	cf := facts.concFor()
	var diags []Diagnostic
	for _, b := range facts.Bodies(pkg) {
		diags = append(diags, a.checkBody(prog, pkg, cf, b)...)
	}
	return diags
}

func (a *CtxFlow) checkBody(prog *Program, pkg *Package, cf *concFacts, b Body) []Diagnostic {
	var diags []Diagnostic
	report := func(n ast.Node, format string, args ...any) {
		diags = append(diags, Diagnostic{Pos: prog.Fset.Position(n.Pos()), Analyzer: a.Name(), Message: fmt.Sprintf(format, args...)})
	}
	info := pkg.Info

	var ctxVar *types.Var
	switch owner := b.Owner.(type) {
	case *ast.FuncDecl:
		ctxVar = ctxParamVar(info, owner.Type)
	case *ast.FuncLit:
		ctxVar = ctxParamVar(info, owner.Type)
	}

	// Fresh-root rule, independent of whether a ctx is in scope.
	if pkg.Name != "main" {
		ast.Inspect(b.Block, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(info, call)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "context" {
				return true
			}
			if fn.Name() != "Background" && fn.Name() != "TODO" {
				return true
			}
			// The single-return wrapper shape is only sanctioned for
			// ctx-less entry points; with a ctx in hand there is no excuse.
			if ctxVar == nil && isCompatWrapper(b.Block, call) {
				return true
			}
			report(call, "context.%s() starts a fresh context root; thread the caller's ctx instead", fn.Name())
			return true
		})
	}

	// The remaining rules only bind when a ctx parameter is in scope: that
	// parameter is a promise this call tree is cancellable.
	if ctxVar == nil {
		return diags
	}

	// Buffer/close evidence is module-wide: the close routinely lives in
	// the producer while the guarded receive lives here.
	buffered := cf.bufferedAnywhere
	closed := cf.closedAnywhere
	hasAfterFunc := callsAfterFunc(info, b.Block)

	// Selects first: a guarded select exempts the hand-offs inside it, an
	// unguarded one is reported once at the select.
	var selectRanges [][2]token.Pos
	ast.Inspect(b.Block, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectStmt)
		if !ok {
			return true
		}
		selectRanges = append(selectRanges, [2]token.Pos{sel.Pos(), sel.End()})
		if selectHasDoneArm(info, sel) {
			return true
		}
		if selectCommsEvidenced(info, sel, buffered, closed) {
			return true
		}
		report(sel, "select has no <-%s.Done() arm or default; cancellation cannot preempt it", ctxVar.Name())
		return true
	})
	inSelect := func(n ast.Node) bool {
		for _, r := range selectRanges {
			if n.Pos() >= r[0] && n.End() <= r[1] {
				return true
			}
		}
		return false
	}

	ast.Inspect(b.Block, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			if inSelect(n) || buffered[chainObject(info, n.Chan)] {
				return true
			}
			report(n, "send on unbuffered channel %s with ctx in scope may block forever; select on it with <-%s.Done()",
				exprString(n.Chan), ctxVar.Name())
		case *ast.UnaryExpr:
			if n.Op != token.ARROW || inSelect(n) || isDoneCall(info, n.X) {
				return true
			}
			obj := chainObject(info, n.X)
			if closed[obj] || buffered[obj] {
				return true
			}
			report(n, "receive from %s with ctx in scope may block forever; select on it with <-%s.Done()",
				exprString(n.X), ctxVar.Name())
		case *ast.RangeStmt:
			if !isChanType(info, n.X) || closed[chainObject(info, n.X)] {
				return true
			}
			report(n, "range over channel %s that nothing closes; close it or select with <-%s.Done()",
				exprString(n.X), ctxVar.Name())
		case *ast.CallExpr:
			fn := calleeFunc(info, n)
			if fn == nil {
				return true
			}
			if kind, method := syncPrimitiveMethod(fn); kind == "Cond" && method == "Wait" && !hasAfterFunc {
				report(n, "sync.Cond.Wait with ctx in scope has no context.AfterFunc bridge; cancellation cannot wake the waiter")
				return true
			}
			if isHTTPRoundTrip(fn) {
				report(n, "http.%s performs a round-trip that ignores ctx; use http.NewRequestWithContext", fn.Name())
				return true
			}
			// Frontier rule: the ctx stops here if the callee may block but
			// cannot be handed the context.
			if cf.facts.FuncOf[fn] != nil && cf.blocking[fn] && !funcHasCtxParam(fn) {
				report(n, "%s may block but takes no context; ctx stops here — thread it through", moduleFuncName(fn))
			}
		}
		return true
	})
	return diags
}

// isCompatWrapper reports whether the call sits in a single-statement
// `return F(context.Background(), ...)` body — the sanctioned shape for
// context-free compatibility entry points.
func isCompatWrapper(block *ast.BlockStmt, call *ast.CallExpr) bool {
	if len(block.List) != 1 {
		return false
	}
	ret, ok := block.List[0].(*ast.ReturnStmt)
	if !ok {
		return false
	}
	return call.Pos() >= ret.Pos() && call.End() <= ret.End()
}

// selectCommsEvidenced reports whether every comm clause of a select has
// its own termination evidence (buffered send target, receive from a
// channel closed in this body), making a Done arm redundant.
func selectCommsEvidenced(info *types.Info, sel *ast.SelectStmt, buffered, closed map[types.Object]bool) bool {
	for _, c := range sel.Body.List {
		cc, ok := c.(*ast.CommClause)
		if !ok || cc.Comm == nil {
			continue
		}
		if !commEvidenced(info, cc.Comm, buffered, closed) {
			return false
		}
	}
	return true
}

func commEvidenced(info *types.Info, comm ast.Stmt, buffered, closed map[types.Object]bool) bool {
	recvOK := func(e ast.Expr) bool {
		u, ok := ast.Unparen(e).(*ast.UnaryExpr)
		if !ok || u.Op != token.ARROW {
			return false
		}
		if isDoneCall(info, u.X) {
			return true
		}
		obj := chainObject(info, u.X)
		return closed[obj] || buffered[obj]
	}
	switch comm := comm.(type) {
	case *ast.SendStmt:
		return buffered[chainObject(info, comm.Chan)]
	case *ast.ExprStmt:
		return recvOK(comm.X)
	case *ast.AssignStmt:
		for _, r := range comm.Rhs {
			if !recvOK(r) {
				return false
			}
		}
		return true
	}
	return false
}

// moduleFuncName renders a module function for messages: "pkg.Func" or
// "pkg.Type.Method".
func moduleFuncName(fn *types.Func) string {
	name := fn.Name()
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			name = named.Obj().Name() + "." + name
		}
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + name
	}
	return name
}
