// Package taint seeds local determinism violations and legal
// counterparts. Flows are not tracked: only the reads themselves are.
package taint

import (
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"time"

	"taint/internal/journal"
	"taint/internal/report"
	"taint/tally"
)

var clock = time.Now // want `time.Now reads the wall clock`

func stamp() int64 {
	return time.Now().UnixNano() // want `time.Now reads the wall clock`
}

func label() string {
	return os.Getenv("XEON_LABEL") // want `os.Getenv reads the environment`
}

// Negative: the clock is read inside the allowlisted package, not here.
func stamped() int64 {
	return journal.Stamp().UnixNano()
}

func roll() int {
	return rand.Intn(6) // want `rand.Intn draws from the global math/rand source`
}

func seeded() int {
	r := rand.New(rand.NewSource(42))
	return r.Intn(6)
}

func dump(m map[string]int) {
	for k, v := range m {
		fmt.Println(k, v) // want `fmt.Println inside range over map`
	}
}

func collect(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k) // want `append to "keys" under range over map`
	}
	return keys
}

func collectSorted(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func collectLocal(m map[string][]int) {
	for _, vs := range m {
		var local []int
		local = append(local, vs...)
		_ = local
	}
}

func render(m map[string]int) string {
	var b strings.Builder
	for k := range m {
		b.WriteString(k) // want `b.WriteString inside range over map`
	}
	return b.String()
}

func tabulate(m map[string]float64, t *report.Table) {
	for k, v := range m {
		t.Add(k, fmt.Sprint(v)) // want `t.Add inside range over map`
	}
}

func total(m map[string]float64, s *tally.Set) {
	for k, v := range m {
		s.Add(k, v)
	}
}

var _ = clock
