// Package hotset pins how the hot set grows from //xeonlint:hot roots.
// Kernel and Drain are the roots. A call inside a root's loop joins the
// set, and so does every call in the joined function's body, loop or
// not. A call a root makes outside its loops stays out, as does anything
// only a cold function calls.
package hotset

// Kernel is a root whose range loop calls step and a method.
//
//xeonlint:hot the fixture's main loop
func Kernel(vals []int, r *ring) int {
	total := setup(len(vals))
	for _, v := range vals {
		total += step(v)
		r.push(total)
	}
	return finish(total)
}

// Drain is a root whose loop condition and post statement make the calls.
//
//xeonlint:hot
func Drain(n int) {
	for i := 0; more(i, n); i = advance(i) {
	}
}

// step joins through Kernel's loop, so its straight-line call to scale
// counts as loop context and scale joins too.
func step(v int) int { return scale(v) + 1 }

func scale(v int) int { return div{3}.rem(v) }

type div struct{ n int }

func (d div) rem(v int) int { return v % d.n }

type ring struct{ buf []int }

func (r *ring) push(v int) { r.buf = append(r.buf, v) }

func more(i, n int) bool { return i < n }

func advance(i int) int { return i + 1 }

// setup and finish are straight-line calls of a root: they stay cold,
// and so does leaf, which only finish calls.
func setup(n int) int { return n }

func finish(t int) int { return leaf(t) }

func leaf(t int) int { return t }

// Cold loops over a call, but nothing hot calls Cold, so helper stays
// cold.
func Cold(vals []int) int {
	total := 0
	for _, v := range vals {
		total += helper(v)
	}
	return total
}

func helper(v int) int { return v }
