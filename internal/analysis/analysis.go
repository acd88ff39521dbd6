// Package analysis is the repo's domain-specific static-analysis layer:
// a small linter framework plus the analyzers behind cmd/xeonlint.
//
// The golden-artifact gate (internal/golden) catches a drifted paper
// metric only after the drift has happened; the analyzers here move the
// invariants that gate depends on to compile time. Since PR 4 the package
// is a dataflow engine, not just per-file AST walks: a Program computes
// shared Facts (function index and module-wide call graph — see
// facts.go) that the interprocedural passes solve their fixed points
// over, plus shared concurrency summaries (may-block, lock-acquisition,
// WaitGroup-join facts — see conc.go).
// Seven analyzers guard the promises the reproduction makes, each proven
// against a seeded bug of its class by TestMutationCorpus:
//
//   - taint: outside the clock allowlist, no wall-clock read, no
//     environment read, no unseeded math/rand draw; nowhere may
//     map-iteration order reach ordered output
//   - dimension: physical dimensions (cycles, ns, seconds, bytes, events)
//     inferred from internal/units constants, counters metrics, and
//     naming conventions, propagated through arithmetic; mixed-dimension
//     addition and meaningless products are findings
//   - unitsafety: no magic ns/Hz/byte conversion literals bypassing
//     internal/units
//   - errdrop: no silently dropped error returns (the forEachJob bug
//     class)
//   - ctxflow: cancellation reaches the blocking frontier — no fresh
//     context roots outside main, no ctx parameter dropped before a
//     may-block callee, no unguarded channel op or cond wait, no select
//     without a ctx.Done() arm
//   - goleak: every goroutine has a provable termination path — a
//     WaitGroup join someone Waits on (checked across calls), a context
//     handed to the spawned function, or a structurally finite body
//   - lockorder: no lock-acquisition cycles module-wide, no re-acquiring
//     a held lock (directly or through a callee), no lock held across a
//     blocking operation, no loop goroutine writing captured state
//     unlocked
//
// Other invariants are guarded by tests of the running code instead: no
// nondeterministic value may reach a study's artifacts or rendered tables
// by any path (internal/core's TestStudySerializationIsBitStable, with
// the golden gate), a cell's allocation count must not grow with its
// instruction budget (TestCellAllocsFlat), every counters.Metrics field
// must reach the figure2 artifact (TestFigure2ReadsEveryMetric), every
// counters.Event has one unique name (TestEventNames), and every
// obs.Metric* constant is registered (internal/shard's
// TestEveryMetricNameIsRegistered). Locks copied by value are go vet's
// copylocks check, which make lint and CI run before xeonlint.
//
// Findings can be suppressed per line with
//
//	//xeonlint:ignore <analyzer>[,<analyzer>|all] <reason>
//
// on the offending line or the line directly above it. The reason is
// mandatory, and an ignore that suppresses nothing is itself reported, so
// suppressions cannot rot silently. The package only reports: a finding
// is fixed by hand, or suppressed with its reason on record.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"xeonomp/internal/obs"
)

// Diagnostic is one finding: a position, the analyzer that produced it,
// and a message. The driver renders it as "file:line:col: [analyzer] msg".
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Package is one type-checked package of a loaded Program.
type Package struct {
	// Path is the import path ("xeonomp/internal/core").
	Path string
	// Name is the package name ("core", "main").
	Name string
	// Dir is the directory the sources were read from.
	Dir string
	// Files are the parsed sources, sorted by file name.
	Files []*ast.File
	// Types and Info are the go/types results for the package.
	Types *types.Package
	Info  *types.Info
}

// Program is a set of type-checked packages sharing one FileSet — the
// whole module, for the cross-package analyzers.
type Program struct {
	Fset     *token.FileSet
	Packages []*Package

	facts *Facts // built on first Facts() call, shared by every analyzer
}

// Analyzer is one lint pass. Check sees a single package but receives the
// whole Program, whose shared Facts the interprocedural analyzers solve
// over.
type Analyzer interface {
	// Name is the stable identifier used in reports and ignore directives.
	Name() string
	// Doc is a one-line description for -list.
	Doc() string
	// Check returns the analyzer's findings for pkg.
	Check(prog *Program, pkg *Package) []Diagnostic
}

// Analyzers returns every registered analyzer in reporting order.
func Analyzers() []Analyzer {
	return []Analyzer{
		&NDTaint{},
		&Dimension{},
		&UnitSafety{},
		&ErrDrop{},
		&CtxFlow{},
		&GoLeak{},
		&LockOrder{},
	}
}

// ignoreDirective is one parsed //xeonlint:ignore comment.
type ignoreDirective struct {
	pos       token.Position
	analyzers map[string]bool // nil when "all"
	used      bool
}

// matches reports whether the directive suppresses analyzer findings on
// the given line of its file: the directive's own line or the next one.
func (d *ignoreDirective) matches(analyzer string, line int) bool {
	if line != d.pos.Line && line != d.pos.Line+1 {
		return false
	}
	return d.analyzers == nil || d.analyzers[analyzer]
}

const ignorePrefix = "//xeonlint:ignore"

// parseIgnores extracts the ignore directives of a file. Malformed
// directives — no analyzer list, unknown analyzer name, or a missing
// reason — are reported rather than half-obeyed.
func parseIgnores(fset *token.FileSet, f *ast.File, known map[string]bool) ([]*ignoreDirective, []Diagnostic) {
	var dirs []*ignoreDirective
	var diags []Diagnostic
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, ignorePrefix) {
				continue
			}
			pos := fset.Position(c.Pos())
			rest := strings.TrimPrefix(c.Text, ignorePrefix)
			fields := strings.Fields(rest)
			if len(fields) < 2 {
				diags = append(diags, Diagnostic{Pos: pos, Analyzer: "xeonlint",
					Message: "malformed ignore: want //xeonlint:ignore <analyzer>[,<analyzer>|all] <reason>"})
				continue
			}
			d := &ignoreDirective{pos: pos}
			if fields[0] != "all" {
				d.analyzers = map[string]bool{}
				bad := false
				for _, name := range strings.Split(fields[0], ",") {
					if !known[name] {
						diags = append(diags, Diagnostic{Pos: pos, Analyzer: "xeonlint",
							Message: fmt.Sprintf("ignore names unknown analyzer %q", name)})
						bad = true
						break
					}
					d.analyzers[name] = true
				}
				if bad {
					continue
				}
			}
			dirs = append(dirs, d)
		}
	}
	return dirs, diags
}

// AnalyzerTiming is one analyzer's wall time over the whole module, for
// xeonlint's verbose output. The clock is read through internal/obs, the
// module's sanctioned timing boundary.
type AnalyzerTiming struct {
	Name      string
	ElapsedNs int64
}

// Run executes the analyzers over every package of the program, applies
// the per-line ignore directives, and reports unused ignores. Diagnostics
// come back sorted by position.
func (p *Program) Run(analyzers []Analyzer) []Diagnostic {
	diags, _ := p.RunTimed(analyzers)
	return diags
}

// RunTimed is Run plus per-analyzer wall time, in the analyzers' order.
func (p *Program) RunTimed(analyzers []Analyzer) ([]Diagnostic, []AnalyzerTiming) {
	// Directives are validated against the full registry, not the running
	// subset, so `xeonlint -only ctxflow` over a tree with errdrop ignores
	// neither rejects those directives as unknown nor reports them unused.
	known := map[string]bool{}
	for _, a := range Analyzers() {
		known[a.Name()] = true
	}
	running := map[string]bool{}
	for _, a := range analyzers {
		running[a.Name()] = true
	}

	var diags []Diagnostic
	ignores := map[string][]*ignoreDirective{} // filename -> directives
	for _, pkg := range p.Packages {
		for _, f := range pkg.Files {
			dirs, bad := parseIgnores(p.Fset, f, known)
			diags = append(diags, bad...)
			for _, d := range dirs {
				ignores[d.pos.Filename] = append(ignores[d.pos.Filename], d)
			}
		}
	}

	// Each analyzer runs over every package, in order, before the next
	// starts, so -v wall times stay attributable to one analyzer. The
	// module-wide fixed points an analyzer needs are solved on its first
	// Check and cached on the shared Facts.
	var timings []AnalyzerTiming
	for _, a := range analyzers {
		t := obs.StartTimer()
		for _, pkg := range p.Packages {
			for _, d := range a.Check(p, pkg) {
				suppressed := false
				for _, ig := range ignores[d.Pos.Filename] {
					if ig.matches(d.Analyzer, d.Pos.Line) {
						ig.used = true
						suppressed = true
					}
				}
				if !suppressed {
					diags = append(diags, d)
				}
			}
		}
		timings = append(timings, AnalyzerTiming{Name: a.Name(), ElapsedNs: t.ElapsedNs()})
	}

	files := make([]string, 0, len(ignores))
	for f := range ignores {
		files = append(files, f)
	}
	sort.Strings(files)
	for _, f := range files {
		for _, ig := range ignores[f] {
			if ig.used {
				continue
			}
			// An ignore for an analyzer that did not run this invocation
			// cannot be judged unused.
			if ig.analyzers != nil && !intersects(ig.analyzers, running) {
				continue
			}
			diags = append(diags, Diagnostic{Pos: ig.pos, Analyzer: "xeonlint",
				Message: "unused ignore directive suppresses nothing; delete it"})
		}
	}

	SortDiagnostics(diags)
	return diags, timings
}

// intersects reports whether the two name sets share an element.
func intersects(a, b map[string]bool) bool {
	for k := range a {
		if b[k] {
			return true
		}
	}
	return false
}

// SortDiagnostics orders findings deterministically — file, line, column,
// analyzer, message — so repeated runs and -json output are diff-stable
// regardless of package iteration or analyzer solve order.
func SortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// calleeFunc resolves the called function or method of a call expression,
// or nil for calls through function values.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// isErrorType reports whether t is the built-in error interface.
func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

// returnsError reports whether the call's result tuple contains an error.
func returnsError(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[call]
	if !ok || tv.Type == nil {
		return false
	}
	switch t := tv.Type.(type) {
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			if isErrorType(t.At(i).Type()) {
				return true
			}
		}
		return false
	default:
		return isErrorType(t)
	}
}

// funcBodies visits every function body of f — declarations and literals —
// exactly once, with the node that owns the body.
func funcBodies(f *ast.File, visit func(owner ast.Node, body *ast.BlockStmt)) {
	ast.Inspect(f, func(n ast.Node) bool {
		switch fn := n.(type) {
		case *ast.FuncDecl:
			if fn.Body != nil {
				visit(fn, fn.Body)
			}
		case *ast.FuncLit:
			visit(fn, fn.Body)
		}
		return true
	})
}

// pathHasSuffix reports whether an import path ends with the given
// slash-separated suffix ("internal/journal" matches
// "xeonomp/internal/journal" but not "xeonomp/internal/journalx").
func pathHasSuffix(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}
