package analysis_test

import (
	"bufio"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"xeonomp/internal/analysis"
)

// Fixture tests: each module under testdata/src seeds violations for one
// analyzer, annotated in-line as
//
//	offending code // want `substring of the expected message`
//
// The harness demands an exact match between annotations and diagnostics —
// every want must be hit on its own line, and every diagnostic must be
// wanted — so a fixture both proves the analyzer fires and pins the lines
// it must stay quiet on.

var wantRe = regexp.MustCompile("// want `([^`]*)`")

type expectation struct {
	file   string // fixture-relative path
	line   int
	substr string
	hit    bool
}

func loadFixture(t *testing.T, name string) (*analysis.Program, string) {
	t.Helper()
	root := filepath.Join("testdata", "src", name)
	prog, err := (&analysis.Loader{Root: root}).Load()
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	abs, err := filepath.Abs(root)
	if err != nil {
		t.Fatal(err)
	}
	return prog, abs
}

// wantsIn scans every fixture source file for want annotations.
func wantsIn(t *testing.T, root string) []*expectation {
	t.Helper()
	var wants []*expectation
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			for _, m := range wantRe.FindAllStringSubmatch(sc.Text(), -1) {
				wants = append(wants, &expectation{file: rel, line: line, substr: m[1]})
			}
		}
		return sc.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	return wants
}

func checkFixture(t *testing.T, name string, analyzers []analysis.Analyzer) {
	t.Helper()
	prog, root := loadFixture(t, name)
	diags := prog.Run(analyzers)
	wants := wantsIn(t, root)
	for _, d := range diags {
		rel, err := filepath.Rel(root, d.Pos.Filename)
		if err != nil {
			rel = d.Pos.Filename
		}
		matched := false
		for _, w := range wants {
			if !w.hit && w.file == rel && w.line == d.Pos.Line && strings.Contains(d.Message, w.substr) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s:%d: [%s] %s", rel, d.Pos.Line, d.Analyzer, d.Message)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("missing diagnostic at %s:%d containing %q", w.file, w.line, w.substr)
		}
	}
}

func TestTaint(t *testing.T) {
	checkFixture(t, "taint", []analysis.Analyzer{&analysis.NDTaint{}})
}

func TestDimension(t *testing.T) {
	checkFixture(t, "dimension", []analysis.Analyzer{&analysis.Dimension{}})
}

func TestUnitSafety(t *testing.T) {
	checkFixture(t, "unitsafety", []analysis.Analyzer{&analysis.UnitSafety{}})
}

func TestErrDrop(t *testing.T) {
	checkFixture(t, "errdrop", []analysis.Analyzer{&analysis.ErrDrop{}})
}

func TestCtxFlow(t *testing.T) {
	checkFixture(t, "ctxflow", []analysis.Analyzer{&analysis.CtxFlow{}})
}

func TestGoLeak(t *testing.T) {
	checkFixture(t, "goleak", []analysis.Analyzer{&analysis.GoLeak{}})
}

func TestLockOrder(t *testing.T) {
	checkFixture(t, "lockorder", []analysis.Analyzer{&analysis.LockOrder{}})
}

func TestCounterParity(t *testing.T) {
	checkFixture(t, "counterparity", []analysis.Analyzer{&analysis.CounterParity{}})
}

// TestParallelRunDeterministic pins the parallel driver's contract:
// whatever the worker count, the merged, sorted diagnostics are
// identical — per-package fan-out must not leak scheduling order into
// output.
func TestParallelRunDeterministic(t *testing.T) {
	run := func(workers int) []analysis.Diagnostic {
		prog, _ := loadFixture(t, "taint")
		prog.Workers = workers
		return prog.Run(analysis.Analyzers())
	}
	want := run(1)
	if len(want) == 0 {
		t.Fatal("fixture produced no diagnostics to compare")
	}
	for _, workers := range []int{2, 4, 8} {
		got := run(workers)
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d diagnostics, want %d", workers, len(got), len(want))
		}
		for i := range want {
			if got[i].Pos != want[i].Pos || got[i].Analyzer != want[i].Analyzer ||
				got[i].Message != want[i].Message {
				t.Errorf("workers=%d: diagnostic %d differs:\n got %v\nwant %v", workers, i, got[i], want[i])
			}
		}
	}
}

// TestIgnoreDirectives pins the whole suppression lifecycle on one
// fixture: a valid ignore above the line and one on the line both
// suppress, a stale ignore is reported as unused, and the two malformed
// directives are reported rather than half-obeyed.
func TestIgnoreDirectives(t *testing.T) {
	prog, _ := loadFixture(t, "ignores")
	diags := prog.Run([]analysis.Analyzer{&analysis.ErrDrop{}})

	for _, d := range diags {
		if d.Analyzer == "errdrop" {
			t.Errorf("errdrop diagnostic survived its ignore directive: %s", d)
		}
	}
	for _, substr := range []string{
		"malformed ignore",
		`unknown analyzer "nosuch"`,
		"unused ignore directive",
	} {
		found := false
		for _, d := range diags {
			if strings.Contains(d.Message, substr) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no diagnostic containing %q in %v", substr, diags)
		}
	}
	if len(diags) != 3 {
		t.Errorf("got %d diagnostics, want exactly 3: %v", len(diags), diags)
	}
}

// TestAnalyzersRegistered pins the registry: eight analyzers, stable
// unique names, non-empty docs — the contract -list and the ignore
// grammar rely on.
func TestAnalyzersRegistered(t *testing.T) {
	as := analysis.Analyzers()
	if len(as) != 8 {
		t.Fatalf("got %d analyzers, want 8", len(as))
	}
	want := []string{"taint", "dimension", "unitsafety", "errdrop", "ctxflow", "goleak", "lockorder", "counterparity"}
	for i, a := range as {
		if a.Name() != want[i] {
			t.Errorf("analyzer %d is %q, want %q", i, a.Name(), want[i])
		}
		if a.Doc() == "" {
			t.Errorf("analyzer %q has no doc", a.Name())
		}
	}
}

// TestLoaderSkipsNestedModules pins the `go list ./...` boundary: a
// directory below the root with its own go.mod is another module, so its
// packages (here one that drops a Close error) are neither loaded nor
// linted as part of this one.
func TestLoaderSkipsNestedModules(t *testing.T) {
	root := t.TempDir()
	for name, src := range map[string]string{
		"go.mod":           "module outer\n",
		"outer.go":         "package outer\n",
		"nested/go.mod":    "module nested\n",
		"nested/nested.go": "package nested\n\nimport \"os\"\n\nfunc drop(f *os.File) { f.Close() }\n",
	} {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	prog, err := (&analysis.Loader{Root: root}).Load()
	if err != nil {
		t.Fatal(err)
	}
	diags := prog.Run(analysis.Analyzers())
	if len(prog.Packages) != 1 || prog.Packages[0].Path != "outer" {
		for _, pkg := range prog.Packages {
			t.Errorf("loaded package %s", pkg.Path)
		}
		t.Fatal("want only the root package outer")
	}
	if len(diags) != 0 {
		t.Errorf("findings from the nested module: %v", diags)
	}
}

// TestSortDiagnostics pins the total diagnostic order -json output and
// the CI problem matcher depend on: file, line, column, analyzer,
// message — every tie broken, so shuffled input always lands in one
// diff-stable order.
func TestSortDiagnostics(t *testing.T) {
	mk := func(file string, line, col int, analyzer, msg string) analysis.Diagnostic {
		var d analysis.Diagnostic
		d.Pos.Filename, d.Pos.Line, d.Pos.Column = file, line, col
		d.Analyzer, d.Message = analyzer, msg
		return d
	}
	want := []analysis.Diagnostic{
		mk("a.go", 1, 1, "counterparity", "analyzer order is lexical, not registry"),
		mk("a.go", 1, 1, "ctxflow", "first"),
		mk("a.go", 1, 1, "errdrop", "same spot, later analyzer"),
		mk("a.go", 1, 1, "errdrop", "same spot, same analyzer, later message"),
		mk("a.go", 1, 2, "ctxflow", "later column"),
		mk("a.go", 2, 1, "ctxflow", "later line"),
		mk("b.go", 1, 1, "ctxflow", "later file"),
	}
	// Reversed input: every comparison key must do its job to restore it.
	got := make([]analysis.Diagnostic, len(want))
	for i := range want {
		got[len(want)-1-i] = want[i]
	}
	analysis.SortDiagnostics(got)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("position %d: got %v, want %v", i, got[i], want[i])
		}
	}
}
