// Command xeonlint runs the repo's nine domain-specific static analyzers
// (see internal/analysis) over the module: nondeterminism taint,
// dimension inference, unit safety, dropped errors, context flow,
// goroutine leaks, lock ordering, counter/golden-schema parity, and
// hot-loop allocations (hotalloc) in the functions the checked-in CPU
// profile marks hot.
//
// Usage:
//
//	xeonlint ./...           # analyze the whole module (the only scope)
//	xeonlint -list           # print the analyzers and what they guard
//	xeonlint -tests ./...    # also analyze in-package _test.go files
//	xeonlint -json ./...     # one JSON finding per line, for tooling
//	xeonlint -fix ./...      # apply the suggested fixes in place
//	xeonlint -diff ./...     # print pending fixes as a unified diff
//	xeonlint -only ctxflow,goleak ./...   # run a subset of analyzers
//	xeonlint -skip taint ./...            # run all but these analyzers
//	xeonlint -pgo path/to/cpu.pgo ./...   # hot set from another profile
//	xeonlint -hot-report     # print the hot set and exit
//	xeonlint -v ./...        # report per-analyzer wall time on stderr
//
// Findings print as "file:line:col: [analyzer] message" and make the exit
// status 1; a load or usage problem exits 2. Under -fix, findings that
// carry a machine-applicable fix are rewritten in place and only the
// unfixable remainder affects the exit status. Under -diff, the exit
// status is 1 exactly when fixes are pending, so CI can assert the tree
// is fix-clean. Suppress a finding with
// //xeonlint:ignore <analyzer> <reason> on or above the offending line —
// unused suppressions are themselves findings.
//
// The -pgo profile defaults to cmd/xeonchar/default.pgo under the module
// root. When that default is absent hotalloc falls back to
// //xeonlint:hot directives alone (with a warning); an explicitly set
// -pgo path that cannot be read is an error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"xeonomp/internal/analysis"
)

func main() {
	var (
		root     = flag.String("root", ".", "module root to analyze (must hold go.mod)")
		tests    = flag.Bool("tests", false, "also analyze in-package _test.go files")
		list     = flag.Bool("list", false, "list the analyzers and exit")
		jsonOut  = flag.Bool("json", false, "emit one JSON finding per line")
		applyFix = flag.Bool("fix", false, "apply suggested fixes in place")
		diffFix  = flag.Bool("diff", false, "print suggested fixes as a unified diff; exit 1 if any are pending")
		only     = flag.String("only", "", "comma-separated analyzers to run exclusively")
		skip     = flag.String("skip", "", "comma-separated analyzers to skip")
		pgoPath  = flag.String("pgo", defaultPGOPath, "pprof CPU profile for the hot set, relative to -root; '' disables profile hotness")
		hotRep   = flag.Bool("hot-report", false, "print the resolved hot set and unresolved profile names, then exit")
		verbose  = flag.Bool("v", false, "report per-analyzer wall time on stderr")
	)
	flag.Parse()

	analyzers := analysis.Analyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-14s %s\n", a.Name(), a.Doc())
		}
		return
	}
	analyzers, err := selectAnalyzers(analyzers, *only, *skip)
	if err != nil {
		fmt.Fprintln(os.Stderr, "xeonlint:", err)
		os.Exit(2)
	}
	if *applyFix && *diffFix {
		fmt.Fprintln(os.Stderr, "xeonlint: -fix and -diff are mutually exclusive (apply, or preview)")
		os.Exit(2)
	}
	// The linter always analyzes the whole module: the cross-package
	// analyzers need every package loaded anyway. Accept the conventional
	// ./... argument; reject anything narrower so nobody believes a
	// partial run happened.
	for _, arg := range flag.Args() {
		if arg != "./..." && arg != "." {
			fmt.Fprintf(os.Stderr, "xeonlint: only whole-module analysis is supported; got %q (use ./... or no argument)\n", arg)
			os.Exit(2)
		}
	}

	prog, err := (&analysis.Loader{Root: *root, IncludeTests: *tests}).Load()
	if err != nil {
		fmt.Fprintln(os.Stderr, "xeonlint:", err)
		os.Exit(2)
	}
	if *pgoPath != "" {
		path := *pgoPath
		if !filepath.IsAbs(path) {
			path = filepath.Join(*root, path)
		}
		prof, err := analysis.ReadPGO(path)
		switch {
		case err == nil:
			prog.PGO = prof
		case flagWasSet("pgo"):
			// An explicitly chosen profile that does not decode is an
			// error; silently linting against nothing would lie.
			fmt.Fprintln(os.Stderr, "xeonlint:", err)
			os.Exit(2)
		default:
			fmt.Fprintf(os.Stderr, "xeonlint: default profile unavailable (%v); hot set from //xeonlint:hot directives only\n", err)
		}
	}

	if *hotRep {
		hot := prog.HotFunctions()
		for _, h := range hot {
			fmt.Printf("%6.2f%% flat %6.2f%% cum  %-60s %s\n", h.Flat*100, h.Cum*100, h.Name, h.Reason)
		}
		for _, name := range prog.UnresolvedHotNames() {
			fmt.Printf("unresolved: %s (profile name not in source; profile may be stale)\n", name)
		}
		fmt.Fprintf(os.Stderr, "xeonlint: %d hot function(s)\n", len(hot))
		return
	}

	diags, timings := prog.RunTimed(analyzers)
	if *verbose {
		for _, t := range timings {
			fmt.Fprintf(os.Stderr, "xeonlint: %-14s %12v\n", t.Name, time.Duration(t.ElapsedNs))
		}
	}

	if *applyFix || *diffFix {
		fixed, err := analysis.ApplyFixes(prog, diags, os.ReadFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "xeonlint:", err)
			os.Exit(2)
		}
		if *diffFix {
			names := make([]string, 0, len(fixed))
			for name := range fixed {
				names = append(names, name)
			}
			sort.Strings(names)
			pending := false
			for _, name := range names {
				old, err := os.ReadFile(name)
				if err != nil {
					fmt.Fprintln(os.Stderr, "xeonlint:", err)
					os.Exit(2)
				}
				if d := analysis.UnifiedDiff(relName(name), old, fixed[name]); d != "" {
					fmt.Print(d)
					pending = true
				}
			}
			if pending {
				fmt.Fprintln(os.Stderr, "xeonlint: fixes pending; run xeonlint -fix ./...")
				os.Exit(1)
			}
			return
		}
		names := make([]string, 0, len(fixed))
		for name := range fixed {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			if err := os.WriteFile(name, fixed[name], 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "xeonlint:", err)
				os.Exit(2)
			}
		}
		// Only the findings no fix could resolve remain actionable.
		var rest []analysis.Diagnostic
		for _, d := range diags {
			if d.Fix == nil {
				rest = append(rest, d)
			}
		}
		fmt.Fprintf(os.Stderr, "xeonlint: applied fixes in %d file(s), %d finding(s) remain\n", len(fixed), len(rest))
		diags = rest
	}

	for _, d := range diags {
		if *jsonOut {
			line, err := json.Marshal(struct {
				File     string `json:"file"`
				Line     int    `json:"line"`
				Col      int    `json:"col"`
				Analyzer string `json:"analyzer"`
				Message  string `json:"message"`
				Fixable  bool   `json:"fixable"`
			}{relName(d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message, d.Fix != nil})
			if err != nil {
				fmt.Fprintln(os.Stderr, "xeonlint:", err)
				os.Exit(2)
			}
			fmt.Println(string(line))
			continue
		}
		fmt.Printf("%s:%d:%d: [%s] %s\n", relName(d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "xeonlint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

// defaultPGOPath is where the checked-in CPU profile lives, relative to
// the module root — the same profile the go toolchain would pick up for
// PGO builds of cmd/xeonchar.
const defaultPGOPath = "cmd/xeonchar/default.pgo"

// flagWasSet reports whether the named flag was given on the command
// line, distinguishing an explicit -pgo from the built-in default.
func flagWasSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

// selectAnalyzers narrows the registry by the -only/-skip flag values,
// preserving registry order. Unknown names are an error, not a silent
// no-op pass.
func selectAnalyzers(all []analysis.Analyzer, only, skip string) ([]analysis.Analyzer, error) {
	names := map[string]bool{}
	for _, a := range all {
		names[a.Name()] = true
	}
	parse := func(flagName, v string) (map[string]bool, error) {
		if v == "" {
			return nil, nil
		}
		set := map[string]bool{}
		for _, name := range strings.Split(v, ",") {
			name = strings.TrimSpace(name)
			if !names[name] {
				return nil, fmt.Errorf("-%s names unknown analyzer %q (see -list)", flagName, name)
			}
			set[name] = true
		}
		return set, nil
	}
	onlySet, err := parse("only", only)
	if err != nil {
		return nil, err
	}
	skipSet, err := parse("skip", skip)
	if err != nil {
		return nil, err
	}
	var out []analysis.Analyzer
	for _, a := range all {
		if onlySet != nil && !onlySet[a.Name()] {
			continue
		}
		if skipSet[a.Name()] {
			continue
		}
		out = append(out, a)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-only/-skip selected no analyzers")
	}
	return out, nil
}

// relName renders a filename relative to the working directory when
// possible, matching how editors and CI annotations expect paths.
func relName(name string) string {
	cwd, err := os.Getwd()
	if err != nil {
		return name
	}
	rel, err := filepath.Rel(cwd, name)
	if err != nil {
		return name
	}
	return rel
}
