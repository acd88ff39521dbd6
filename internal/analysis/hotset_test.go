package analysis_test

import (
	"reflect"
	"testing"
)

// TestHotSetGolden pins the hot set grown from the hotset fixture's two
// //xeonlint:hot roots: membership, reasons, pprof-style names and order,
// over two independent loads to pin determinism. Calls a root makes
// outside its loops (setup, finish, leaf) stay out; every call in a
// loop-called function's body (step's call to scale, scale's to rem)
// joins, loop or not.
func TestHotSetGolden(t *testing.T) {
	want := [][2]string{
		{"hotset.(*ring).push", "called in a hot loop of hotset.Kernel"},
		{"hotset.Drain", "marked //xeonlint:hot"},
		{"hotset.Kernel", "marked //xeonlint:hot"},
		{"hotset.advance", "called in a hot loop of hotset.Drain"},
		{"hotset.div.rem", "called in a hot loop of hotset.scale"},
		{"hotset.more", "called in a hot loop of hotset.Drain"},
		{"hotset.scale", "called in a hot loop of hotset.step"},
		{"hotset.step", "called in a hot loop of hotset.Kernel"},
	}
	for round := 0; round < 2; round++ {
		prog, _ := loadFixture(t, "hotset")
		var got [][2]string
		for _, h := range prog.HotFunctions() {
			if h.Fn == nil {
				t.Errorf("round %d: hot function %s has no types.Func", round, h.Name)
			}
			got = append(got, [2]string{h.Name, h.Reason})
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("round %d: hot set\n got %q\nwant %q", round, got, want)
		}
	}
}
