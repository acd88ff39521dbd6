package main

import (
	"reflect"
	"testing"

	"xeonomp/internal/analysis"
)

// TestSelectAnalyzers pins -only/-skip: selections keep registry order,
// and an unknown name or an empty selection is an error rather than a
// silently narrower run.
func TestSelectAnalyzers(t *testing.T) {
	all := analysis.Analyzers()
	var names []string
	for _, a := range all {
		names = append(names, a.Name())
	}
	for _, tc := range []struct {
		only, skip string
		want       []string // nil: an error
	}{
		{"", "", names},
		{"lockorder, taint", "", []string{"taint", "lockorder"}},
		{"", "taint,hotalloc", names[1 : len(names)-1]},
		{"ctxflow,goleak,lockorder", "goleak", []string{"ctxflow", "lockorder"}},
		{"nosuch", "", nil},
		{"", "nosuch", nil},
		{"hot", "", nil},
		{"taint", "taint", nil},
	} {
		got, err := selectAnalyzers(all, tc.only, tc.skip)
		if tc.want == nil {
			if err == nil {
				t.Errorf("-only %q -skip %q: no error, selected %d analyzers", tc.only, tc.skip, len(got))
			}
			continue
		}
		if err != nil {
			t.Errorf("-only %q -skip %q: %v", tc.only, tc.skip, err)
			continue
		}
		var gotNames []string
		for _, a := range got {
			gotNames = append(gotNames, a.Name())
		}
		if !reflect.DeepEqual(gotNames, tc.want) {
			t.Errorf("-only %q -skip %q: got %v, want %v", tc.only, tc.skip, gotNames, tc.want)
		}
	}
}
