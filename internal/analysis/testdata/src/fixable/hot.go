// Fixable hotalloc findings: a defer queued per hot-loop iteration as
// the loop body's last statement (the fix deletes the keyword, running
// the call where it was queued) and an append into a zero-length make
// with a derivable bound (the fix adds the capacity).
package fixable

// hotLoop is hot by directive.
//
//xeonlint:hot
func hotLoop(n int) []int {
	xs := make([]int, 0)
	for i := 0; i < n; i++ {
		xs = append(xs, i)
		defer noteDone(i)
	}
	return xs
}

func noteDone(int) {}

var _ = hotLoop
