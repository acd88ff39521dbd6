package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"

	"xeonomp/internal/analysis"
)

// TestSelectAnalyzers pins -only: selections keep registry order, and an
// unknown name is an error rather than a silently narrower run.
func TestSelectAnalyzers(t *testing.T) {
	all := analysis.Analyzers()
	var names []string
	for _, a := range all {
		names = append(names, a.Name())
	}
	for _, tc := range []struct {
		only string
		want []string // nil: an error
	}{
		{"", names},
		{"lockorder, taint", []string{"taint", "lockorder"}},
		{"nosuch", nil},
		{"errdrop,nosuch", nil},
		{"hot", nil},
	} {
		got, err := selectAnalyzers(all, tc.only)
		if tc.want == nil {
			if err == nil {
				t.Errorf("-only %q: no error, selected %d analyzers", tc.only, len(got))
			}
			continue
		}
		if err != nil {
			t.Errorf("-only %q: %v", tc.only, err)
			continue
		}
		var gotNames []string
		for _, a := range got {
			gotNames = append(gotNames, a.Name())
		}
		if !reflect.DeepEqual(gotNames, tc.want) {
			t.Errorf("-only %q: got %v, want %v", tc.only, gotNames, tc.want)
		}
	}
}

// problemMatcher compiles the pattern CI's problem matcher uses to turn
// xeonlint's text output into inline annotations.
func problemMatcher(t *testing.T) *regexp.Regexp {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", ".github", "problem-matchers", "xeonlint.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		ProblemMatcher []struct {
			Pattern []struct {
				Regexp string `json:"regexp"`
			} `json:"pattern"`
		} `json:"problemMatcher"`
	}
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	if len(m.ProblemMatcher) != 1 || len(m.ProblemMatcher[0].Pattern) != 1 {
		t.Fatalf("want one matcher with one pattern, got %+v", m)
	}
	return regexp.MustCompile(m.ProblemMatcher[0].Pattern[0].Regexp)
}

// TestRunContract pins what CI and tooling rely on: the exit status (0
// clean, 1 findings, 2 a usage or load problem), text findings the
// problem matcher parses, and -json lines with exactly five keys. Fix
// and scope flags xeonlint does not have (-fix, -diff, -tests, -skip)
// are usage errors; they run against a clean module, so accepting one
// would exit 0.
func TestRunContract(t *testing.T) {
	clean := t.TempDir()
	for name, src := range map[string]string{"go.mod": "module clean\n", "clean.go": "package clean\n"} {
		if err := os.WriteFile(filepath.Join(clean, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	fixture := filepath.Join("..", "..", "internal", "analysis", "testdata", "src", "errdrop")
	matcher := problemMatcher(t)
	textLine := func(t *testing.T, line string) {
		if !matcher.MatchString(line) {
			t.Errorf("line does not match the problem matcher %s: %q", matcher, line)
		}
	}
	jsonLine := func(t *testing.T, line string) {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Errorf("line is not JSON: %q: %v", line, err)
			return
		}
		var keys []string
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if want := []string{"analyzer", "col", "file", "line", "message"}; !reflect.DeepEqual(keys, want) {
			t.Errorf("line has keys %v, want %v: %q", keys, want, line)
		}
	}

	for _, tc := range []struct {
		name   string
		args   []string
		status int
		line   func(*testing.T, string) // checks each stdout line; nil: stdout must be empty
		stderr string                   // substring stderr must hold
	}{
		{"clean module", []string{"-root", clean, "./..."}, 0, nil, ""},
		{"text findings", []string{"-root", fixture}, 1, textLine, "finding(s)"},
		{"json findings", []string{"-root", fixture, "-json", "./..."}, 1, jsonLine, "finding(s)"},
		{"-fix", []string{"-root", clean, "-fix", "./..."}, 2, nil, "-fix"},
		{"-diff", []string{"-root", clean, "-diff", "./..."}, 2, nil, "-diff"},
		{"-tests", []string{"-root", clean, "-tests", "./..."}, 2, nil, "-tests"},
		{"-skip", []string{"-root", clean, "-skip", "taint", "./..."}, 2, nil, "-skip"},
		{"-only unknown", []string{"-root", clean, "-only", "nosuch", "./..."}, 2, nil, `unknown analyzer "nosuch"`},
		{"package path", []string{"-root", clean, "./internal/core"}, 2, nil, "whole-module"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if got := run(tc.args, &stdout, &stderr); got != tc.status {
				t.Fatalf("exit status %d, want %d; stderr:\n%s", got, tc.status, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.stderr) {
				t.Errorf("stderr lacks %q:\n%s", tc.stderr, stderr.String())
			}
			if tc.line == nil {
				if stdout.Len() != 0 {
					t.Errorf("unexpected stdout:\n%s", stdout.String())
				}
				return
			}
			if stdout.Len() == 0 {
				t.Fatal("no findings on stdout")
			}
			for _, line := range strings.Split(strings.TrimSuffix(stdout.String(), "\n"), "\n") {
				tc.line(t, line)
			}
		})
	}
}
