package main

import (
	"os"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// the closest ranks; 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// refCore is the state of one core of the reference kernel: set-
// associative L1 (16 KiB) and L2 (1 MiB) tag arrays with LRU stamps, a
// 64-entry TLB and a 4096-entry two-bit predictor, the Paxville
// geometry.
type refCore struct {
	l1tag, l1lru [256]uint64
	l2tag, l2lru [16384]uint64
	tlb          [64]uint64
	bp           [4096]uint8
}

// refKernel is a fixed miniature of the cycle engine's inner loop, owned
// by the benchmark so no change to the program can move it: a seeded
// address stream (mostly hot, some warm, a few cold lines) drives TLB,
// L1 and L2 lookups with LRU fills, and every eighth step a branch
// predictor update, round-robin over four cores. It slows down with the
// engine in slow host phases (correlation 0.92 over 20 s windows on the
// 2-CPU host the bounds were set on), though by a phase-dependent factor,
// so it flags host phases but cannot correct for them.
func refKernel(cores *[4]refCore) uint64 {
	x := uint64(0x9e3779b97f4a7c15)
	var clock uint64
	for i := 0; i < 400_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		c := &cores[i&3]
		clock++
		var addr uint64
		switch r := x & 15; {
		case r < 11:
			addr = (x >> 8) & (12<<10 - 1)
		case r < 14:
			addr = (x >> 8) & (512<<10 - 1)
		default:
			addr = (x >> 8) & (64<<20 - 1)
		}
		if pg := addr >> 12; c.tlb[pg&63] != pg {
			c.tlb[pg&63] = pg
		}
		line := addr>>6 + 1
		s1 := (line & 31) * 8
		if !lookup(c.l1tag[s1:s1+8], c.l1lru[s1:s1+8], line, clock) {
			s2 := (line & 2047) * 8
			if !lookup(c.l2tag[s2:s2+8], c.l2lru[s2:s2+8], line, clock) {
				fill(c.l2tag[s2:s2+8], c.l2lru[s2:s2+8], line, clock)
			}
			fill(c.l1tag[s1:s1+8], c.l1lru[s1:s1+8], line, clock)
		}
		if x&7 == 0 {
			b := &c.bp[(x>>20)&4095]
			if x&(1<<40) != 0 {
				if *b < 3 {
					*b++
				}
			} else if *b > 0 {
				*b--
			}
		}
	}
	return clock
}

func lookup(tags, lru []uint64, line, clock uint64) bool {
	for w := range tags {
		if tags[w] == line {
			lru[w] = clock
			return true
		}
	}
	return false
}

func fill(tags, lru []uint64, line, clock uint64) {
	v := 0
	for w := range lru {
		if lru[w] < lru[v] {
			v = w
		}
	}
	tags[v], lru[v] = line, clock
}

// hostRefMs times refKernel five times and returns the median burst in
// ms. Runs take it at their start and end: a slow host phase shows here
// as well as in the workload, a regression only in the workload.
func hostRefMs() float64 {
	cores := new([4]refCore)
	refSink += refKernel(cores) // warm the tables; not a sample
	xs := make([]float64, 5)
	for i := range xs {
		t := time.Now()
		refSink += refKernel(cores)
		xs[i] = float64(time.Since(t)) / 1e6
	}
	return median(xs)
}

// refSink keeps the compiler from deleting refKernel's work.
var refSink uint64

// rssMiB reads the process's resident set from /proc/self/statm; 0
// where that file does not exist.
func rssMiB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(b))
	if len(fields) < 2 {
		return 0
	}
	pages, err := strconv.ParseFloat(fields[1], 64)
	if err != nil {
		return 0
	}
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// runtimeStats is a snapshot of the Go runtime counters the per-layer
// ledger reads: heap allocation volume and GC CPU time.
type runtimeStats struct {
	mallocs, allocBytes uint64
	gcCPU, totalCPU     float64
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readRuntime() runtimeStats {
	s := append([]metrics.Sample(nil), runtimeSamples...)
	metrics.Read(s)
	return runtimeStats{
		mallocs:    s[0].Value.Uint64(),
		allocBytes: s[1].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
		totalCPU:   s[3].Value.Float64(),
	}
}

func (a runtimeStats) add(b runtimeStats) runtimeStats {
	return runtimeStats{
		mallocs:    a.mallocs + b.mallocs,
		allocBytes: a.allocBytes + b.allocBytes,
		gcCPU:      a.gcCPU + b.gcCPU,
		totalCPU:   a.totalCPU + b.totalCPU,
	}
}

func (a runtimeStats) sub(b runtimeStats) runtimeStats {
	return runtimeStats{
		mallocs:    a.mallocs - b.mallocs,
		allocBytes: a.allocBytes - b.allocBytes,
		gcCPU:      a.gcCPU - b.gcCPU,
		totalCPU:   a.totalCPU - b.totalCPU,
	}
}

// memWatch samples the live heap and the resident set every few
// milliseconds until stopped and keeps their peaks.
type memWatch struct {
	stop         chan struct{}
	wg           sync.WaitGroup
	heapB        uint64
	heapMiB, rss float64
}

func watchMemory() *memWatch {
	m := &memWatch{stop: make(chan struct{})}
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			m.heapB = max(m.heapB, s[0].Value.Uint64())
			m.rss = max(m.rss, rssMiB())
			select {
			case <-m.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return m
}

// done stops the sampler, waits for it, and returns the peaks in MiB.
func (m *memWatch) done() (heapMiB, rssMiB float64) {
	close(m.stop)
	m.wg.Wait()
	return float64(m.heapB) / (1 << 20), m.rss
}

// settle collects the heap and returns freed memory to the OS, so every
// timed phase starts from the same state rather than inheriting set-up
// garbage, and its resident-set peak is its own.
func settle() { debug.FreeOSMemory() }
