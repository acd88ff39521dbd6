package analysis_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"xeonomp/internal/analysis"
)

// mutant is one seeded bug in a copy of the module: the analyzer meant
// to catch it, the module-relative file it lives in, and its source.
// Without an anchor, src is a new file of a real package. With one, src
// is inserted right after the anchor's only occurrence in an existing
// file — used only where the bug must sit inside an existing body.
type mutant struct {
	analyzer, file, anchor, src string
}

// corpus holds one mutant per analyzer, each the bug class that analyzer
// exists to catch, written the way it would plausibly arrive in review.
var corpus = []mutant{
	{analyzer: "taint", file: "internal/core/mutant_taint.go", src: `package core

import (
	"time"

	"xeonomp/internal/golden"
)

func stampArtifact(a *golden.Artifact) {
	a.Add("stamp", float64(time.Now().UnixNano()))
}
`},
	{analyzer: "dimension", file: "internal/lmbench/mutant_dimension.go", src: `package lmbench

func exposedLatency(latencyNs float64, stallCycles uint64) float64 {
	return latencyNs + float64(stallCycles)
}
`},
	{analyzer: "unitsafety", file: "internal/report/mutant_unitsafety.go", src: `package report

func gigabytes(b float64) float64 {
	return b / 1e9
}
`},
	{analyzer: "errdrop", file: "internal/runcache/mutant_errdrop.go", src: `package runcache

import "os"

func touch(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	f.Close()
	return nil
}
`},
	{analyzer: "ctxflow", file: "internal/core/mutant_ctxflow.go", src: `package core

import "context"

func detach(ctx context.Context) context.Context {
	return context.Background()
}
`},
	{analyzer: "goleak", file: "internal/core/mutant_goleak.go", src: `package core

func spin(ch chan int) {
	go func() {
		for {
			ch <- 1
		}
	}()
}
`},
	{analyzer: "lockorder", file: "internal/server/mutant_lockorder.go", src: `package server

import "sync"

type ledgerA struct{ mu sync.Mutex }

type ledgerB struct{ mu sync.Mutex }

func lockAB(a *ledgerA, b *ledgerB) {
	a.mu.Lock()
	defer a.mu.Unlock()
	b.mu.Lock()
	b.mu.Unlock()
}

func lockBA(a *ledgerA, b *ledgerB) {
	b.mu.Lock()
	defer b.mu.Unlock()
	a.mu.Lock()
	a.mu.Unlock()
}
`},
	{analyzer: "counterparity", file: "internal/counters/counters.go",
		anchor: "\tCPI            float64 // cycles / instructions retired\n",
		src:    "\tUnrendered     float64 // a column no renderer or exporter reads\n"},
	{analyzer: "hotalloc", file: "internal/cpu/cpu.go",
		anchor: "\t\tif x.done == len(x.runq) {\n\t\t\tsettle(now)\n\t\t\treturn now, false, false\n\t\t}\n",
		src:    "\t\t_ = fmt.Sprintf(\"%d\", now)\n"},
}

// TestMutationCorpus is the lint tier's proof of work. It copies the
// module's non-test sources into a temp dir, injects the corpus, runs
// every registered analyzer once over the copy, and asserts each mutant
// is caught by exactly its own analyzer and nothing else is reported.
// An analyzer that cannot claim a row here catches nothing the others
// miss; a new analyzer lands with its own row.
func TestMutationCorpus(t *testing.T) {
	root := copyModuleSources(t, filepath.Join("..", ".."))
	type span struct {
		analyzer string
		lo, hi   int
	}
	spans := map[string][]span{} // module-relative file -> mutant lines
	for _, m := range corpus {
		lo, hi := m.inject(t, root)
		spans[m.file] = append(spans[m.file], span{m.analyzer, lo, hi})
	}

	prog, err := (&analysis.Loader{Root: root}).Load()
	if err != nil {
		t.Fatalf("loading the mutated module: %v", err)
	}
	if prog.PGO, err = analysis.ReadPGO(filepath.Join(root, "cmd", "xeonchar", "default.pgo")); err != nil {
		t.Fatal(err)
	}

	caught := map[string]map[string]bool{} // mutant -> analyzers reporting on it
	for _, d := range prog.Run(analysis.Analyzers()) {
		rel, err := filepath.Rel(root, d.Pos.Filename)
		if err != nil {
			t.Fatal(err)
		}
		owner := ""
		for _, s := range spans[filepath.ToSlash(rel)] {
			if s.lo <= d.Pos.Line && d.Pos.Line <= s.hi {
				owner = s.analyzer
			}
		}
		if owner == "" {
			t.Errorf("finding outside the mutants: %s", d)
			continue
		}
		if caught[owner] == nil {
			caught[owner] = map[string]bool{}
		}
		caught[owner][d.Analyzer] = true
	}

	for _, m := range corpus {
		var by []string
		for a := range caught[m.analyzer] {
			by = append(by, a)
		}
		sort.Strings(by)
		t.Logf("%-14s mutant caught by: %s", m.analyzer, strings.Join(by, ", "))
		if len(by) != 1 || by[0] != m.analyzer {
			t.Errorf("%s mutant in %s: caught by %v, want exactly [%s]", m.analyzer, m.file, by, m.analyzer)
		}
	}
}

// inject writes the mutant into the module copy at root and returns the
// 1-based line span it occupies. A missing or ambiguous anchor fails the
// test: a corpus that silently stops injecting proves nothing.
func (m mutant) inject(t *testing.T, root string) (lo, hi int) {
	t.Helper()
	path := filepath.Join(root, filepath.FromSlash(m.file))
	lines := strings.Count(m.src, "\n")
	if m.anchor == "" {
		if _, err := os.Stat(path); err == nil {
			t.Fatalf("%s mutant: new file %s already exists", m.analyzer, m.file)
		}
		if err := os.WriteFile(path, []byte(m.src), 0o644); err != nil {
			t.Fatal(err)
		}
		return 1, lines
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%s mutant: %v", m.analyzer, err)
	}
	src := string(b)
	if n := strings.Count(src, m.anchor); n != 1 {
		t.Fatalf("%s mutant: anchor %q occurs %d times in %s, want exactly once", m.analyzer, m.anchor, n, m.file)
	}
	at := strings.Index(src, m.anchor) + len(m.anchor)
	lo = strings.Count(src[:at], "\n") + 1
	if err := os.WriteFile(path, []byte(src[:at]+m.src+src[at:]), 0o644); err != nil {
		t.Fatal(err)
	}
	return lo, lo + lines - 1
}

// copyModuleSources copies what the loader reads of the module at src —
// go.mod and the non-test .go files outside hidden, underscore and
// testdata directories — plus the checked-in CPU profile into a temp dir.
func copyModuleSources(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if rel != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		keep := rel == "go.mod" || filepath.ToSlash(rel) == "cmd/xeonchar/default.pgo" ||
			(strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go"))
		if !keep {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), b, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}
