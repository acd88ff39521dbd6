package api

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"xeonomp/internal/counters"
)

// sampleCellResponse is a cell response as a worker writes it: n
// programs, each with counters and derived metrics.
func sampleCellResponse(n int) CellResponse {
	r := CellResponse{Cached: true, WallCycles: 737387}
	for i := 0; i < n; i++ {
		var set counters.Set
		for j, e := range counters.Events() {
			set.Add(e, uint64(1000*(i+1)+37*j))
		}
		r.Programs = append(r.Programs, CellProgram{
			Benchmark: []string{"CG", "FT", "EP", "MG"}[i%4],
			Threads:   2,
			Cycles:    365592 + int64(i),
			Counters:  &set,
			Metrics:   counters.Derive(&set),
		})
	}
	return r
}

// encoderBytes is the reference the direct writer is held to: what the
// worker's json.Encoder wrote, newline included.
func encoderBytes(r *CellResponse) ([]byte, error) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(r); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// FuzzCellResponse holds the direct cell-response codec to
// encoding/json both ways. Whatever body the direct reader accepts,
// json.Unmarshal must accept with a deeply equal result. For any
// response, AppendJSON and a newline must be json.Encoder's bytes (a NaN
// or infinite metric failing on both sides), and the direct reader must
// read them, with or without the newline, without falling back.
func FuzzCellResponse(f *testing.F) {
	for _, n := range []int{0, 1, 2} {
		r := sampleCellResponse(n)
		b, err := encoderBytes(&r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b, true, int64(1), "CG", 1, int64(2), uint64(3), 0.25, uint8(n+2))
	}
	one := sampleCellResponse(1)
	body, err := encoderBytes(&one)
	if err != nil {
		f.Fatal(err)
	}
	for _, r := range [][2]string{
		{"\n", ""},
		{"\n", " "},
		{"\n", "\n{}"},
		{`"cached":true`, `"cached":null`},
		{`"cached":true`, `"Cached":true`},
		{`"wall_cycles":737387`, `"wall_cycles":-0`},
		{`"wall_cycles":737387`, `"wall_cycles":7e5`},
		{`"wall_cycles":737387`, `"wall_cycles":9223372036854775808`},
		{`"benchmark":"CG"`, `"benchmark":"C\u0047"`},
		{`"benchmark":"CG"`, "\"benchmark\":\"\xff<\u2028\""},
		{`"threads":2`, `"threads":2.0`},
		{`"counters":{`, `"counters":null,"x":{`},
		{`"counters":{`, `"counters":{"cycles":1,`},
		{`"metrics":{"L1MissRate":`, `"metrics":{"L1MissRate":-0,"x":`},
		{`"L2MissRate":`, `"L2MissRate":1e400,"y":`},
		{`"CPI":`, `"CPI":1E+2,"z":`},
		{`"CPI":`, `"CPI":.5,"z":`},
		{`"CPI":`, `"CPI":-01,"z":`},
		{`"CPI":`, `"CPI":1.,"z":`},
		{`"CPI":`, `"CPI":1e,"z":`},
		{`"programs":[`, `"programs":null,"p":[`},
		{`}}]}`, `}},{}]}`},
	} {
		f.Add([]byte(strings.Replace(string(body), r[0], r[1], 1)), false, int64(0), "", 0, int64(0), uint64(0), 0.0, uint8(0))
	}
	for _, name := range []string{"<a&b>", "\u2028\u2029", "\xff\xfe", "\"\\/\x01", "é"} {
		f.Add([]byte(nil), false, int64(-1), name, -3, int64(math.MinInt64), uint64(math.MaxUint64), 1.0, uint8(3))
	}
	for _, v := range []float64{math.Copysign(0, -1), 1e-7, 1e21, 1e-6, 123456789e13, math.SmallestNonzeroFloat64, math.MaxFloat64, math.NaN(), math.Inf(1), math.Inf(-1)} {
		f.Add([]byte(nil), true, int64(0), "CG", 1, int64(0), uint64(1), v, uint8(2))
	}
	f.Fuzz(func(t *testing.T, body []byte, cached bool, wall int64, name string, threads int, cycles int64, count uint64, metric float64, shape uint8) {
		if r, ok := decodeCellResponse(body); ok {
			var want CellResponse
			if err := json.Unmarshal(body, &want); err != nil {
				t.Fatalf("direct reader accepts what json.Unmarshal rejects (%v):\n%s", err, body)
			}
			if !reflect.DeepEqual(r, want) {
				t.Fatalf("direct reader and json.Unmarshal differ on\n%s:\n%+v\n%+v", body, r, want)
			}
		}

		// shape picks nil programs, an empty list, or 1 to 3 programs.
		r := CellResponse{Cached: cached, WallCycles: wall}
		if shape%5 > 0 {
			r.Programs = []CellProgram{}
		}
		for i := 0; i < int(shape%5)-1; i++ {
			p := CellProgram{Benchmark: name, Threads: threads + i, Cycles: cycles}
			if count != 0 && i != 1 {
				var set counters.Set
				set.Add(counters.Event(int(count%uint64(counters.NumEvents))), count)
				p.Counters = &set
			}
			for j, fld := range metricFields(&p.Metrics) {
				*fld.v = metric * float64(j+1)
			}
			p.Metrics.CPI = -metric / 3
			r.Programs = append(r.Programs, p)
		}
		want, werr := encoderBytes(&r)
		got, err := r.AppendJSON(nil)
		if (err != nil) != (werr != nil) {
			t.Fatalf("AppendJSON error %v, json.Encoder error %v", err, werr)
		}
		if err != nil {
			return
		}
		if got = append(got, '\n'); !bytes.Equal(got, want) {
			t.Fatalf("AppendJSON differs from json.Encoder:\n got %s\nwant %s", got, want)
		}
		var ref CellResponse
		if err := json.Unmarshal(got, &ref); err != nil {
			t.Fatal(err)
		}
		for _, b := range [][]byte{got, got[:len(got)-1]} {
			back, ok := decodeCellResponse(b)
			if !ok {
				t.Fatalf("direct reader falls back on the direct writer's bytes:\n%s", b)
			}
			if !reflect.DeepEqual(back, ref) {
				t.Fatalf("direct reader and json.Unmarshal differ on\n%s:\n%+v\n%+v", b, back, ref)
			}
		}
	})
}

// TestCellResponseWriterAllocs guards the worker's response write: one
// allocation for the body, however many programs the cell has.
func TestCellResponseWriterAllocs(t *testing.T) {
	var want float64
	for _, n := range []int{1, 2, 4, 8} {
		r := sampleCellResponse(n)
		got := testing.AllocsPerRun(50, func() {
			if _, err := r.AppendJSON(nil); err != nil {
				t.Fatal(err)
			}
		})
		if n == 1 {
			want = got
		}
		if got != want || got > 1 {
			t.Errorf("AppendJSON of %d programs makes %.0f allocations, want %.0f for any count and at most 1", n, got, want)
		}
	}
}

// BenchmarkCellResponse times both ends of the frontend→worker hop's
// body: the worker's write and the frontend's read, for a one-program
// and a two-program cell.
func BenchmarkCellResponse(b *testing.B) {
	for _, n := range []int{1, 2} {
		r := sampleCellResponse(n)
		body, err := r.AppendJSON(nil)
		if err != nil {
			b.Fatal(err)
		}
		name := []string{"", "single", "pair"}[n]
		b.Run("write/"+name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			buf := make([]byte, 0, 2*len(body))
			for i := 0; i < b.N; i++ {
				if _, err := r.AppendJSON(buf[:0]); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("read/"+name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			for i := 0; i < b.N; i++ {
				if _, ok := decodeCellResponse(body); !ok {
					b.Fatal("fell back")
				}
			}
		})
	}
}
