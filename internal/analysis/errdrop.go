package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
)

// ErrDrop flags silently dropped error returns — the bug class behind the
// forEachJob deadlock fixed in PR 1, where worker errors vanished and the
// producer hung. Three shapes are reported:
//
//   - a call whose results include an error used as a bare statement
//   - `defer x.Close()` / Flush / Sync, whose error disappears with the
//     frame (fatal on write paths: a failed flush means a truncated file
//     that nobody hears about)
//   - `go f()` where f returns an error nobody can receive
//
// An explicit `_ = f()` is a visible, reviewable drop and stays legal.
// Well-known infallible or best-effort sinks (fmt printing to
// stdout/stderr, strings.Builder, bytes.Buffer) are excluded.
type ErrDrop struct{}

func (*ErrDrop) Name() string { return "errdrop" }
func (*ErrDrop) Doc() string {
	return "flag unchecked error returns, deferred Close/Flush drops, and goroutines losing errors"
}

// droppyDefers are the method names whose deferred error loss is worth
// reporting; anything else deferred with an error result is too noisy to
// police.
var droppyDefers = map[string]bool{"Close": true, "Flush": true, "Sync": true}

func (a *ErrDrop) Check(prog *Program, pkg *Package) []Diagnostic {
	var diags []Diagnostic
	report := func(n ast.Node, format string, args ...any) {
		diags = append(diags, Diagnostic{Pos: prog.Fset.Position(n.Pos()), Analyzer: a.Name(), Message: fmt.Sprintf(format, args...)})
	}
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				call, ok := n.X.(*ast.CallExpr)
				if !ok || !returnsError(pkg.Info, call) || a.excluded(pkg.Info, call) {
					return true
				}
				report(n, "%s returns an error that is dropped; handle it or assign to _ explicitly", callName(pkg.Info, call))
			case *ast.DeferStmt:
				fn := calleeFunc(pkg.Info, n.Call)
				if fn == nil || !droppyDefers[fn.Name()] || !returnsError(pkg.Info, n.Call) {
					return true
				}
				report(n, "deferred %s discards its error; wrap it in a func that checks, or //xeonlint:ignore with a reason",
					callName(pkg.Info, n.Call))
			case *ast.GoStmt:
				if !returnsError(pkg.Info, n.Call) || a.excluded(pkg.Info, n.Call) {
					return true
				}
				report(n, "go %s discards the goroutine's error; collect it via a channel or errgroup-style join",
					callName(pkg.Info, n.Call))
			}
			return true
		})
	}
	return diags
}

// excluded reports whether the dropped error is one of the sanctioned
// best-effort sinks.
func (a *ErrDrop) excluded(info *types.Info, call *ast.CallExpr) bool {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	// fmt.Print* write to stdout; Fprint* when aimed at os.Stdout/os.Stderr
	// (diagnostics, not data) or at an infallible in-memory builder.
	if fn.Pkg().Path() == "fmt" {
		switch fn.Name() {
		case "Print", "Printf", "Println":
			return true
		case "Fprint", "Fprintf", "Fprintln":
			return len(call.Args) > 0 &&
				(isStdStream(info, call.Args[0]) || isInfallibleWriter(info.Types[call.Args[0]].Type))
		}
	}
	// strings.Builder and bytes.Buffer writes cannot fail.
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		return isInfallibleWriter(recv.Type())
	}
	return false
}

// isInfallibleWriter reports whether t is (a pointer to) strings.Builder
// or bytes.Buffer, whose Write methods never return a non-nil error.
func isInfallibleWriter(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	full := named.Obj().Pkg().Path() + "." + named.Obj().Name()
	return full == "strings.Builder" || full == "bytes.Buffer"
}

// isStdStream reports whether e is os.Stdout or os.Stderr.
func isStdStream(info *types.Info, e ast.Expr) bool {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	obj, ok := info.Uses[sel.Sel].(*types.Var)
	if !ok || obj.Pkg() == nil || obj.Pkg().Path() != "os" {
		return false
	}
	return obj.Name() == "Stdout" || obj.Name() == "Stderr"
}

// callName renders the called expression for messages.
func callName(info *types.Info, call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name + "()"
	case *ast.SelectorExpr:
		return exprString(fun.X) + "." + fun.Sel.Name + "()"
	default:
		return "call"
	}
}
