package api

import (
	"strconv"

	"xeonomp/internal/counters"
	"xeonomp/internal/jsonfmt"
)

// The cell response crosses the frontend→worker hop once per sharded
// cell, so both ends code it directly instead of walking it by
// reflection. The bytes are exactly encoding/json's; FuzzCellResponse
// holds the two together.

// AppendJSON appends json.Marshal(r) to b: cached, wall_cycles, then
// each program's benchmark, threads, cycles, counters (left out when
// nil) and metrics, with encoding/json's string escaping and float
// format. A NaN or infinite metric fails with encoding/json's error.
// The worker's cell endpoint writes these bytes and the newline
// json.Encoder ends a value with.
func (r *CellResponse) AppendJSON(b []byte) ([]byte, error) {
	// One allocation of room for every program without escapes, so the
	// cost does not grow with the number of programs.
	if n := 64 + 1024*len(r.Programs); cap(b)-len(b) < n {
		b = append(make([]byte, 0, len(b)+n), b...)
	}
	b = append(b, `{"cached":`...)
	b = strconv.AppendBool(b, r.Cached)
	b = append(b, `,"wall_cycles":`...)
	b = strconv.AppendInt(b, r.WallCycles, 10)
	b = append(b, `,"programs":`...)
	if r.Programs == nil {
		return append(b, "null}"...), nil
	}
	b = append(b, '[')
	for i := range r.Programs {
		p := &r.Programs[i]
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"benchmark":`...)
		b = jsonfmt.AppendString(b, p.Benchmark)
		b = append(b, `,"threads":`...)
		b = strconv.AppendInt(b, int64(p.Threads), 10)
		b = append(b, `,"cycles":`...)
		b = strconv.AppendInt(b, p.Cycles, 10)
		if p.Counters != nil {
			b = append(b, `,"counters":`...)
			b = p.Counters.AppendJSON(b)
		}
		b = append(b, `,"metrics":`...)
		var err error
		for _, f := range metricFields(&p.Metrics) {
			b = append(b, f.key...)
			if b, err = jsonfmt.AppendFloat(b, *f.v); err != nil {
				return nil, err
			}
		}
		b = append(b, "}}"...)
	}
	return append(b, "]}"...), nil
}

// metricField is one counters.Metrics field with the bytes encoding/json
// writes before its value.
type metricField struct {
	key string
	v   *float64
}

// metricFields lists m's fields in declaration order, the order
// encoding/json writes them in.
func metricFields(m *counters.Metrics) [9]metricField {
	return [9]metricField{
		{`{"L1MissRate":`, &m.L1MissRate},
		{`,"L2MissRate":`, &m.L2MissRate},
		{`,"TCMissRate":`, &m.TCMissRate},
		{`,"ITLBMissRate":`, &m.ITLBMissRate},
		{`,"DTLBMisses":`, &m.DTLBMisses},
		{`,"StalledPct":`, &m.StalledPct},
		{`,"BranchPredRate":`, &m.BranchPredRate},
		{`,"PrefetchBusPct":`, &m.PrefetchBusPct},
		{`,"CPI":`, &m.CPI},
	}
}

// decodeCellResponse reads a cell response body in AppendJSON's layout,
// with or without json.Encoder's trailing newline. ok is false for any
// other body: a worker built from another tree may write one, and the
// caller hands it to encoding/json.
func decodeCellResponse(body []byte) (r CellResponse, ok bool) {
	s := jsonfmt.NewScanner(body)
	s.Lit(`{"cached":`)
	r.Cached = s.Bool()
	s.Lit(`,"wall_cycles":`)
	r.WallCycles = s.Int64()
	s.Lit(`,"programs":`)
	r.Programs = jsonfmt.List(&s, scanCellProgram)
	s.Lit("}")
	s.Opt("\n")
	if s.Failed() || len(s.Unread()) != 0 {
		return CellResponse{}, false
	}
	return r, true
}

func scanCellProgram(s *jsonfmt.Scanner) CellProgram {
	var p CellProgram
	s.Lit(`{"benchmark":`)
	p.Benchmark = s.Str()
	s.Lit(`,"threads":`)
	p.Threads = s.Int()
	s.Lit(`,"cycles":`)
	p.Cycles = s.Int64()
	if s.Opt(`,"counters":`) {
		set, rest, err := counters.CutSet(s.Unread())
		s.Resume(rest, err)
		p.Counters = &set
	}
	s.Lit(`,"metrics":`)
	for _, f := range metricFields(&p.Metrics) {
		s.Lit(f.key)
		*f.v = s.Float()
	}
	s.Lit("}}")
	return p
}
