package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// This file is the concurrency substrate shared by the ctxflow, goleak,
// and lockorder analyzers: per-function summaries of what may block, which
// module-visible locks a call may acquire, and which WaitGroup objects are
// ever waited on — computed once per Program over the Facts call graph,
// like the dimension fixed point.

// concFacts is the module-wide concurrency summary set.
type concFacts struct {
	facts *Facts

	// blocking marks functions that may block: a channel operation, a
	// select without default, sync.Cond.Wait, sync.WaitGroup.Wait, an
	// HTTP round-trip — directly or through any module callee.
	blocking map[*types.Func]bool

	// acquires maps each function to the module-visible locks (struct
	// fields and package-level variables of sync.Mutex/RWMutex type) it
	// may acquire, directly or through module callees, with one sample
	// acquisition site per lock.
	acquires map[*types.Func]map[*types.Var]token.Pos

	// waits records, per WaitGroup object (field, package var, or local),
	// the functions that call .Wait() on it — the join evidence goleak
	// resolves WaitGroup-spawned goroutines against.
	waits map[types.Object][]*types.Func

	// lockNames carries a stable display name per lock object, resolved
	// from the receiver's static type at the first acquisition site seen
	// in deterministic package/file order ("server.Server.mu").
	lockNames map[*types.Var]string

	// bufferedAnywhere and closedAnywhere are module-wide evidence sets:
	// channel objects made with a non-zero capacity, and channel objects
	// some function closes. goleak consults these instead of per-body
	// scans because the close is often in the spawner while the receive
	// is in the spawned helper.
	bufferedAnywhere map[types.Object]bool
	closedAnywhere   map[types.Object]bool

	// lockDiags is the lockorder analyzer's module-wide result (held-lock
	// walk + acquisition-graph cycles), solved once and filtered per
	// package by Check.
	lockDiags  []Diagnostic
	lockSolved bool
}

// concFor solves the concurrency summaries once and caches them.
func (f *Facts) concFor() *concFacts {
	if f.conc != nil {
		return f.conc
	}
	cf := &concFacts{
		facts:            f,
		blocking:         map[*types.Func]bool{},
		acquires:         map[*types.Func]map[*types.Var]token.Pos{},
		waits:            map[types.Object][]*types.Func{},
		lockNames:        map[*types.Var]string{},
		bufferedAnywhere: map[types.Object]bool{},
		closedAnywhere:   map[types.Object]bool{},
	}

	// Direct facts per declared function body.
	for _, pkg := range f.prog.Packages {
		for _, b := range f.bodies[pkg] {
			if b.Fn == nil {
				continue
			}
			cf.scanDirect(pkg, b.Fn, b.Block)
		}
		for _, b := range f.bodies[pkg] {
			for obj := range bufferedChans(pkg.Info, b.Block) {
				cf.bufferedAnywhere[obj] = true
			}
			for obj := range closedChans(pkg.Info, b.Block) {
				cf.closedAnywhere[obj] = true
			}
		}
	}

	// Transitive closure over the call graph. Funcs is bottom-up, so one
	// sweep resolves acyclic chains; iterate until stable for cycles.
	for sweep := 0; sweep < 16; sweep++ {
		changed := false
		for _, fi := range f.Funcs {
			for _, callee := range f.Callees[fi.Fn] {
				if cf.blocking[callee] && !cf.blocking[fi.Fn] {
					cf.blocking[fi.Fn] = true
					changed = true
				}
				for lock, pos := range cf.acquires[callee] {
					if _, ok := cf.acquires[fi.Fn][lock]; !ok {
						if cf.acquires[fi.Fn] == nil {
							cf.acquires[fi.Fn] = map[*types.Var]token.Pos{}
						}
						cf.acquires[fi.Fn][lock] = pos
						changed = true
					}
				}
			}
		}
		if !changed {
			break
		}
	}
	f.conc = cf
	return cf
}

// scanDirect records one function's direct blocking operations, lock
// acquisitions, and WaitGroup waits.
func (cf *concFacts) scanDirect(pkg *Package, fn *types.Func, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			cf.blocking[fn] = true
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				cf.blocking[fn] = true
			}
		case *ast.RangeStmt:
			if isChanType(pkg.Info, n.X) {
				cf.blocking[fn] = true
			}
		case *ast.SelectStmt:
			if !selectHasDefault(n) {
				cf.blocking[fn] = true
			}
		case *ast.CallExpr:
			callee := calleeFunc(pkg.Info, n)
			if callee == nil {
				return true
			}
			if kind, method := syncPrimitiveMethod(callee); kind != "" {
				switch {
				case method == "Wait" && (kind == "Cond" || kind == "WaitGroup"):
					cf.blocking[fn] = true
					if kind == "WaitGroup" {
						if obj := receiverObject(pkg.Info, n); obj != nil {
							cf.waits[obj] = append(cf.waits[obj], fn)
						}
					}
				case (method == "Lock" || method == "RLock") && (kind == "Mutex" || kind == "RWMutex"):
					if v := lockVarOf(pkg.Info, n); v != nil {
						if cf.acquires[fn] == nil {
							cf.acquires[fn] = map[*types.Var]token.Pos{}
						}
						if _, ok := cf.acquires[fn][v]; !ok {
							cf.acquires[fn][v] = n.Pos()
						}
						if _, ok := cf.lockNames[v]; !ok {
							cf.lockNames[v] = lockDisplayName(pkg, n, v)
						}
					}
				}
			}
			if isHTTPRoundTrip(callee) {
				cf.blocking[fn] = true
			}
		}
		return true
	})
}

// lockName renders a lock object for messages, falling back to the bare
// variable name when no acquisition named it.
func (cf *concFacts) lockName(v *types.Var) string {
	if name, ok := cf.lockNames[v]; ok {
		return name
	}
	return v.Name()
}

// syncPrimitiveMethod reports the sync primitive type name and method
// name of a sync.* method ("" when fn is not one).
func syncPrimitiveMethod(fn *types.Func) (kind, method string) {
	if fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return "", ""
	}
	return named.Obj().Name(), fn.Name()
}

// receiverObject resolves the base object of a method call's receiver
// chain: `x.Wait()` gives x's object, `s.wg.Wait()` gives the wg field.
func receiverObject(info *types.Info, call *ast.CallExpr) types.Object {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	return chainObject(info, sel.X)
}

// chainObject resolves an expression to the object it names: the field
// var for a selector chain, the variable for an ident, nil otherwise.
func chainObject(info *types.Info, e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if obj := info.Uses[e]; obj != nil {
			return obj
		}
		return info.Defs[e]
	case *ast.SelectorExpr:
		if s, ok := info.Selections[e]; ok && s.Kind() == types.FieldVal {
			return s.Obj()
		}
		if obj := info.Uses[e.Sel]; obj != nil {
			return obj
		}
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return chainObject(info, e.X)
		}
	case *ast.StarExpr:
		return chainObject(info, e.X)
	}
	return nil
}

// lockVarOf resolves the lock object of an `x.Lock()` call to a
// module-visible *types.Var: a struct field or a package-level variable.
// Local mutexes return the local var (held-state tracking still works);
// unresolvable receivers return nil.
func lockVarOf(info *types.Info, call *ast.CallExpr) *types.Var {
	obj := receiverObject(info, call)
	v, ok := obj.(*types.Var)
	if !ok {
		return nil
	}
	return v
}

// graphableLock reports whether a lock var can participate in the
// module-wide acquisition graph: struct fields and package-level
// variables. Function-local mutexes cannot be acquired by two functions
// in conflicting order.
func graphableLock(v *types.Var) bool {
	if v == nil {
		return false
	}
	if v.IsField() {
		return true
	}
	// Package-level: parent scope is the package scope.
	return v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}

// lockDisplayName renders "pkg.Type.field" for a lock acquisition like
// s.mu.Lock() by reading the receiver chain's static types.
func lockDisplayName(pkg *Package, call *ast.CallExpr, v *types.Var) string {
	if !v.IsField() {
		if v.Pkg() != nil {
			return v.Pkg().Name() + "." + v.Name()
		}
		return v.Name()
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if ok {
		if inner, ok := ast.Unparen(sel.X).(*ast.SelectorExpr); ok {
			if tv, ok := pkg.Info.Types[inner.X]; ok && tv.Type != nil {
				t := tv.Type
				if p, ok := t.(*types.Pointer); ok {
					t = p.Elem()
				}
				if named, ok := t.(*types.Named); ok && named.Obj().Pkg() != nil {
					return named.Obj().Pkg().Name() + "." + named.Obj().Name() + "." + v.Name()
				}
			}
		}
	}
	if v.Pkg() != nil {
		return v.Pkg().Name() + "." + v.Name()
	}
	return v.Name()
}

// isHTTPRoundTrip reports whether fn is a net/http call that performs a
// network round-trip with no context of its own (http.Get and friends) —
// the round-trips ctxflow wants threaded through NewRequestWithContext.
func isHTTPRoundTrip(fn *types.Func) bool {
	if fn.Pkg() == nil || fn.Pkg().Path() != "net/http" {
		return false
	}
	// Only the package-level convenience functions are round-trips;
	// methods that share their names (http.Header.Get) are plain lookups.
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return false
	}
	switch fn.Name() {
	case "Get", "Post", "Head", "PostForm":
		return true
	}
	return false
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// ctxParamVar returns the object of the first context.Context parameter
// of a function type's field list, resolved through info (nil if none or
// unnamed).
func ctxParamVar(info *types.Info, ft *ast.FuncType) *types.Var {
	if ft == nil || ft.Params == nil {
		return nil
	}
	for _, field := range ft.Params.List {
		tv, ok := info.Types[field.Type]
		if !ok || !isContextType(tv.Type) {
			continue
		}
		for _, name := range field.Names {
			if name.Name == "_" {
				continue
			}
			if v, ok := info.Defs[name].(*types.Var); ok {
				return v
			}
		}
	}
	return nil
}

// funcHasCtxParam reports whether fn's signature accepts a
// context.Context parameter.
func funcHasCtxParam(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if isContextType(sig.Params().At(i).Type()) {
			return true
		}
	}
	return false
}

// isChanType reports whether e has channel type.
func isChanType(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	_, isChan := tv.Type.Underlying().(*types.Chan)
	return isChan
}

// selectHasDefault reports whether a select statement has a default
// clause.
func selectHasDefault(sel *ast.SelectStmt) bool {
	for _, c := range sel.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// isDoneRecv reports whether e is a receive (or bare call) of
// `<something>.Done()` on a context-typed receiver — the cancellation
// arm shape.
func isDoneRecv(info *types.Info, e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.UnaryExpr:
		if e.Op == token.ARROW {
			return isDoneCall(info, e.X)
		}
	}
	return false
}

// isDoneCall reports whether e is a call `x.Done()` with x a
// context.Context.
func isDoneCall(info *types.Info, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Done" {
		return false
	}
	tv, ok := info.Types[sel.X]
	return ok && isContextType(tv.Type)
}

// selectHasDoneArm reports whether a select has a `<-ctx.Done()` comm
// clause (or a default clause, which also makes it non-blocking).
func selectHasDoneArm(info *types.Info, sel *ast.SelectStmt) bool {
	for _, c := range sel.Body.List {
		cc, ok := c.(*ast.CommClause)
		if !ok {
			continue
		}
		if cc.Comm == nil {
			return true // default
		}
		switch comm := cc.Comm.(type) {
		case *ast.ExprStmt:
			if isDoneRecv(info, comm.X) {
				return true
			}
		case *ast.AssignStmt:
			for _, r := range comm.Rhs {
				if isDoneRecv(info, r) {
					return true
				}
			}
		}
	}
	return false
}

// bufferedChans scans a top-level body for channels made with an explicit
// non-zero capacity (`make(chan T, n)`), keyed by the variable object the
// channel is bound to. Sends on these complete without a receiver until
// the buffer fills, which is the "result slot" idiom the analyzers
// accept.
func bufferedChans(info *types.Info, body *ast.BlockStmt) map[types.Object]bool {
	out := map[types.Object]bool{}
	isBufferedMake := func(e ast.Expr) bool {
		call, ok := ast.Unparen(e).(*ast.CallExpr)
		if !ok || len(call.Args) < 2 {
			return false
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); !ok || id.Name != "make" {
			return false
		}
		if _, isChan := info.Types[call.Args[0]].Type.(*types.Chan); !isChan {
			return false
		}
		if tv, ok := info.Types[call.Args[1]]; ok && tv.Value != nil && tv.Value.String() == "0" {
			return false // make(chan T, 0) is unbuffered
		}
		return true
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, rhs := range n.Rhs {
				if !isBufferedMake(rhs) {
					continue
				}
				if obj := chainObject(info, n.Lhs[i]); obj != nil {
					out[obj] = true
				}
			}
		case *ast.ValueSpec:
			if len(n.Names) != len(n.Values) {
				return true
			}
			for i, v := range n.Values {
				if !isBufferedMake(v) {
					continue
				}
				if obj := info.Defs[n.Names[i]]; obj != nil {
					out[obj] = true
				}
			}
		case *ast.KeyValueExpr:
			// Struct literal fields: Gate{sem: make(chan struct{}, n)}
			// makes the sem field a buffered channel module-wide.
			if !isBufferedMake(n.Value) {
				return true
			}
			if key, ok := n.Key.(*ast.Ident); ok {
				if obj, ok := info.Uses[key].(*types.Var); ok && obj.IsField() {
					out[obj] = true
				}
			}
		}
		return true
	})
	return out
}

// closedChans scans a top-level body for `close(ch)` calls, keyed by the
// channel's variable object — evidence that receives and ranges on the
// channel have a termination protocol.
func closedChans(info *types.Info, body *ast.BlockStmt) map[types.Object]bool {
	out := map[types.Object]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) != 1 {
			return true
		}
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		if !ok || id.Name != "close" {
			return true
		}
		if _, isBuiltin := info.Uses[id].(*types.Builtin); !isBuiltin {
			return true
		}
		if obj := chainObject(info, call.Args[0]); obj != nil {
			out[obj] = true
		}
		return true
	})
	return out
}

// callsAfterFunc reports whether a top-level body calls context.AfterFunc
// — the documented bridge that wakes sync.Cond waiters on cancellation.
func callsAfterFunc(info *types.Info, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(info, call)
		if fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "context" && fn.Name() == "AfterFunc" {
			found = true
		}
		return !found
	})
	return found
}

// sortedLockVars orders lock vars deterministically by display name then
// position, for stable cycle reports.
func (cf *concFacts) sortedLockVars(vars map[*types.Var]bool) []*types.Var {
	out := make([]*types.Var, 0, len(vars))
	for v := range vars {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := cf.lockName(out[i]), cf.lockName(out[j])
		if a != b {
			return a < b
		}
		return out[i].Pos() < out[j].Pos()
	})
	return out
}
