package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// recorder keeps the traced run's spans in memory; they are written out
// as Chrome trace_event JSON and reduced to a self-time table only after
// the run. Spans come from the benchmark's own decorators around calls
// into each layer — the program itself records nothing here. A nil
// *recorder is the untraced run: every method is a no-op, so the plain
// path pays nothing.
type recorder struct {
	t0    time.Time
	on    atomic.Bool
	mu    sync.Mutex
	phase string
	spans []span
}

// span is one timed call. Times are nanoseconds since the recorder
// started; parent is the index of the enclosing span in the same
// goroutine chain, or -1.
type span struct {
	name       string
	phase      string
	start, end int64
	parent     int
}

type spanKey struct{}

func newRecorder() *recorder {
	r := &recorder{t0: time.Now(), phase: "setup"}
	r.on.Store(true)
	return r
}

// setPhase tags the spans started from now on ("setup", "timed" or
// "overhead"), so per-layer reductions can keep set-up work out of
// timed-phase numbers, and resumes recording after pause.
func (r *recorder) setPhase(p string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.phase = p
	r.mu.Unlock()
	r.on.Store(true)
}

// pause stops recording until the next setPhase: the untraced passes a
// traced run interleaves, to measure its own overhead, go through the
// same long-lived decorators without leaving spans.
func (r *recorder) pause() {
	if r != nil {
		r.on.Store(false)
	}
}

// start opens a span under the one carried by ctx. The returned func
// closes it.
func (r *recorder) start(ctx context.Context, name string) (context.Context, func()) {
	if r == nil || !r.on.Load() {
		return ctx, func() {}
	}
	parent := -1
	if p, ok := ctx.Value(spanKey{}).(int); ok {
		parent = p
	}
	r.mu.Lock()
	id := len(r.spans)
	r.spans = append(r.spans, span{name: name, phase: r.phase, start: r.now(), parent: parent})
	r.mu.Unlock()
	return context.WithValue(ctx, spanKey{}, id), func() {
		end := r.now()
		r.mu.Lock()
		r.spans[id].end = end
		r.mu.Unlock()
	}
}

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

// layerTime is the reduction of every span of one name.
type layerTime struct {
	count   int
	totalNs int64
	selfNs  int64
}

// layers sums total and self time by span name over the spans of phase
// ("" = every phase). A span's self time is its duration minus the part
// of that interval its child spans cover; children that ran in parallel
// on several workers are merged first, so self time is never negative.
func (r *recorder) layers(phase string) map[string]layerTime {
	out := map[string]layerTime{}
	if r == nil {
		return out
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	children := map[int][][2]int64{}
	for _, s := range r.spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], [2]int64{s.start, s.end})
		}
	}
	for i, s := range r.spans {
		if phase != "" && s.phase != phase {
			continue
		}
		dur := s.end - s.start
		lt := out[s.name]
		lt.count++
		lt.totalNs += dur
		lt.selfNs += dur - covered(children[i], s.start, s.end)
		out[s.name] = lt
	}
	return out
}

// covered returns how much of [lo, hi) the union of ivs covers.
func covered(ivs [][2]int64, lo, hi int64) int64 {
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	var sum int64
	cur := lo
	for _, iv := range ivs {
		s, e := max(iv[0], cur), min(iv[1], hi)
		if e > s {
			sum += e - s
			cur = e
		}
	}
	return sum
}

// writeSelfTable prints the per-layer self-time table of the timed
// phase, largest self time first.
func (r *recorder) writeSelfTable(w io.Writer, title string) {
	ls := r.layers("timed")
	names := make([]string, 0, len(ls))
	var total int64
	for n, l := range ls {
		names = append(names, n)
		total += l.selfNs
	}
	sort.Slice(names, func(a, b int) bool {
		if ls[names[a]].selfNs != ls[names[b]].selfNs {
			return ls[names[a]].selfNs > ls[names[b]].selfNs
		}
		return names[a] < names[b]
	})
	fmt.Fprintf(w, "self time by layer, timed phase — %s\n", title)
	fmt.Fprintf(w, "%-28s %8s %12s %12s %7s\n", "layer", "spans", "self ms", "total ms", "self %")
	for _, n := range names {
		l := ls[n]
		fmt.Fprintf(w, "%-28s %8d %12.3f %12.3f %6.1f%%\n", n, l.count,
			float64(l.selfNs)/1e6, float64(l.totalNs)/1e6, 100*ratio(float64(l.selfNs), float64(total)))
	}
}

// traceEvent is one Chrome trace_event "complete" event.
type traceEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`
	Dur  float64           `json:"dur"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// writeChrome writes the spans as Chrome trace_event JSON (load it in
// chrome://tracing or Perfetto). Spans are packed onto lanes so that
// every lane nests properly: concurrent cells land on separate lanes,
// and a child always sits on its parent's lane or below it.
func (r *recorder) writeChrome(w io.Writer) error {
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	r.mu.Unlock()
	order := make([]int, len(spans))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		sa, sb := spans[order[a]], spans[order[b]]
		if sa.start != sb.start {
			return sa.start < sb.start
		}
		return sa.end > sb.end
	})
	var lanes [][]int64 // per lane: stack of open span end times
	events := make([]traceEvent, 0, len(spans))
	for _, i := range order {
		s := spans[i]
		lane := -1
		for l := range lanes {
			st := lanes[l]
			for len(st) > 0 && st[len(st)-1] <= s.start {
				st = st[:len(st)-1]
			}
			lanes[l] = st
			if lane < 0 && (len(st) == 0 || st[len(st)-1] >= s.end) {
				lane = l
			}
		}
		if lane < 0 {
			lanes = append(lanes, nil)
			lane = len(lanes) - 1
		}
		lanes[lane] = append(lanes[lane], s.end)
		events = append(events, traceEvent{
			Name: s.name, Cat: strings.SplitN(s.name, ".", 2)[0], Ph: "X",
			Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			Pid: 1, Tid: lane + 1, Args: map[string]string{"phase": s.phase},
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(struct {
		TraceEvents     []traceEvent `json:"traceEvents"`
		DisplayTimeUnit string       `json:"displayTimeUnit"`
	}{events, "ms"})
}
