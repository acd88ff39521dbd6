// Package lockfix seeds unlocked fan-out. Locks copied by value are left
// to go vet's copylocks check.
package lockfix

import "sync"

// Guarded embeds a mutex, so it is shared by pointer.
type Guarded struct {
	mu sync.Mutex
	n  int
}

func byPointer(g *Guarded) {
	g.mu.Lock()
	g.n++
	g.mu.Unlock()
}

func fanOutBad(gs []*Guarded) {
	total := 0
	for _, g := range gs {
		g := g
		go func() {
			total += g.n // want `writes captured variable "total" without locking`
		}()
	}
	_ = total
}

func fanOutLocked(gs []*Guarded, mu *sync.Mutex) {
	total := 0
	for _, g := range gs {
		g := g
		go func() {
			mu.Lock()
			total += g.n
			mu.Unlock()
		}()
	}
	_ = total
}

func fanOutLocal(gs []*Guarded) {
	for range gs {
		go func() {
			local := 1
			local = local + 1
			_ = local
		}()
	}
}

var _ = byPointer
var _ = fanOutBad
var _ = fanOutLocked
var _ = fanOutLocal
