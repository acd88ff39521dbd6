package shard_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"xeonomp/internal/obs"
)

// TestEveryMetricNameIsRegistered holds obs's name table to the
// registrations: every Metric* constant in internal/obs/names.go must
// name a series in obs.Default. This test binary links every package
// that registers one (core, journal, machine, runcache, server and
// shard), so a constant that nothing registers fails here instead of
// silently never appearing in a -metrics-out snapshot.
func TestEveryMetricNameIsRegistered(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), filepath.Join("..", "obs", "names.go"), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	snap := obs.Default.Snapshot()
	registered := func(name string) bool {
		_, c := snap.Counters[name]
		_, g := snap.Gauges[name]
		_, h := snap.Histograms[name]
		return c || g || h
	}
	n := 0
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		for _, spec := range gd.Specs {
			vs := spec.(*ast.ValueSpec)
			for i, id := range vs.Names {
				if !strings.HasPrefix(id.Name, "Metric") {
					continue
				}
				var lit *ast.BasicLit
				if i < len(vs.Values) {
					lit, _ = vs.Values[i].(*ast.BasicLit)
				}
				if lit == nil || lit.Kind != token.STRING {
					t.Errorf("obs.%s is not a string literal", id.Name)
					continue
				}
				name, err := strconv.Unquote(lit.Value)
				if err != nil {
					t.Fatal(err)
				}
				n++
				if !registered(name) {
					t.Errorf("obs.%s (%q) is never registered: the series can never appear in a snapshot", id.Name, name)
				}
			}
		}
	}
	if n == 0 {
		t.Fatal("no Metric* constants in names.go")
	}
}
