// Command xeonlint runs the repo's seven domain-specific static analyzers
// (see internal/analysis) over the module: nondeterminism sources,
// dimension inference, unit safety, dropped errors, context flow,
// goroutine leaks, and lock ordering. Locks copied by value are go vet's
// copylocks check, and nondeterministic flows into artifacts are caught
// by the byte-identity tests and the golden gate.
//
// Usage:
//
//	xeonlint ./...           # analyze the whole module (the only scope)
//	xeonlint -list           # print the analyzers and what they guard
//	xeonlint -json ./...     # one JSON finding per line, for tooling
//	xeonlint -only ctxflow,goleak ./...   # run a subset of analyzers
//	xeonlint -v ./...        # report per-analyzer wall time on stderr
//
// Findings print as "file:line:col: [analyzer] message" and make the exit
// status 1; a load or usage problem exits 2. Fix a finding by hand, or
// suppress it with //xeonlint:ignore <analyzer> <reason> on or above its
// line; an unused suppression is itself a finding.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"xeonomp/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// finding is one -json output line.
type finding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// run is the whole command: it parses args, writes findings to stdout
// and everything else to stderr, and returns the exit status — 0 clean,
// 1 findings, 2 a usage or load problem.
func run(args []string, stdout, stderr io.Writer) int {
	// A failed write to stderr has nowhere left to be reported.
	warnf := func(format string, a ...any) { _, _ = fmt.Fprintf(stderr, "xeonlint: "+format+"\n", a...) }

	fs := flag.NewFlagSet("xeonlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		root    = fs.String("root", ".", "module root to analyze (must hold go.mod)")
		list    = fs.Bool("list", false, "list the analyzers and exit")
		jsonOut = fs.Bool("json", false, "emit one JSON finding per line")
		only    = fs.String("only", "", "comma-separated analyzers to run exclusively")
		verbose = fs.Bool("v", false, "report per-analyzer wall time on stderr")
	)
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return 0
	} else if err != nil {
		return 2
	}

	analyzers := analysis.Analyzers()
	if *list {
		for _, a := range analyzers {
			if _, err := fmt.Fprintf(stdout, "%-14s %s\n", a.Name(), a.Doc()); err != nil {
				warnf("%v", err)
				return 2
			}
		}
		return 0
	}
	analyzers, err := selectAnalyzers(analyzers, *only)
	if err != nil {
		warnf("%v", err)
		return 2
	}
	// The cross-package analyzers need the whole module loaded anyway, so
	// accept ./... (or .) and reject anything narrower: nobody should
	// believe a partial run happened.
	for _, arg := range fs.Args() {
		if arg != "./..." && arg != "." {
			warnf("only whole-module analysis is supported; got %q (use ./... or no argument)", arg)
			return 2
		}
	}

	prog, err := (&analysis.Loader{Root: *root}).Load()
	if err != nil {
		warnf("%v", err)
		return 2
	}
	diags, timings := prog.RunTimed(analyzers)
	if *verbose {
		for _, t := range timings {
			warnf("%-14s %12v", t.Name, time.Duration(t.ElapsedNs))
		}
	}

	// Paths print relative to the working directory, as editors and CI
	// annotations expect (absolute if it is unknown: Rel then fails).
	cwd, _ := os.Getwd()
	enc := json.NewEncoder(stdout)
	for _, d := range diags {
		file := d.Pos.Filename
		if rel, err := filepath.Rel(cwd, file); err == nil {
			file = rel
		}
		var err error
		if *jsonOut {
			err = enc.Encode(finding{file, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message})
		} else {
			_, err = fmt.Fprintf(stdout, "%s:%d:%d: [%s] %s\n", file, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
		}
		if err != nil {
			warnf("%v", err)
			return 2
		}
	}
	if len(diags) > 0 {
		warnf("%d finding(s)", len(diags))
		return 1
	}
	return 0
}

// selectAnalyzers narrows the registry to the -only names, in registry
// order; an unknown name is an error, not a silently narrower run.
func selectAnalyzers(all []analysis.Analyzer, only string) ([]analysis.Analyzer, error) {
	if only == "" {
		return all, nil
	}
	selected := map[string]bool{} // every known name, true once named
	for _, a := range all {
		selected[a.Name()] = false
	}
	for _, name := range strings.Split(only, ",") {
		name = strings.TrimSpace(name)
		if _, known := selected[name]; !known {
			return nil, fmt.Errorf("-only names unknown analyzer %q (see -list)", name)
		}
		selected[name] = true
	}
	var out []analysis.Analyzer
	for _, a := range all {
		if selected[a.Name()] {
			out = append(out, a)
		}
	}
	return out, nil
}
