package golden

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func sample() *Artifact {
	a := New("figure-x", Relative(1e-6))
	a.Scale = 0.1
	a.Seed = 1
	a.Add("CG/HT on -4-1/speedup", 1.832)
	a.Add("CG/Serial/cpi", 2.25)
	a.AddTol("CG/Serial/wall_cycles", 123456789, Exact())
	a.AddUnit("mem_latency_ns", 136.85, "ns")
	return a
}

func TestToleranceAllows(t *testing.T) {
	cases := []struct {
		tol          Tolerance
		golden, live float64
		want         bool
	}{
		{Exact(), 5, 5, true},
		{Exact(), 5, 5.0000001, false},
		{Relative(0.01), 100, 100.9, true},
		{Relative(0.01), 100, 101.1, false},
		{Relative(0.01), -100, -100.9, true}, // band scales with |golden|
		{Tolerance{Abs: 0.5}, 0, 0.4, true},
		{Tolerance{Abs: 0.5}, 0, 0.6, false},
		{Exact(), math.NaN(), math.NaN(), true},
		{Relative(1), math.NaN(), 1, false},
		{Relative(1), 1, math.NaN(), false},
	}
	for i, c := range cases {
		if got := c.tol.Allows(c.golden, c.live); got != c.want {
			t.Errorf("case %d: %s.Allows(%g, %g) = %v, want %v", i, c.tol, c.golden, c.live, got, c.want)
		}
	}
}

func TestToleranceString(t *testing.T) {
	if s := Exact().String(); s != "exact" {
		t.Errorf("Exact() = %q", s)
	}
	if s := Relative(1e-6).String(); s != "rel 1e-06" {
		t.Errorf("Relative = %q", s)
	}
	if s := (Tolerance{Abs: 0.5, Rel: 0.01}).String(); s != "abs 0.5 + rel 0.01" {
		t.Errorf("mixed = %q", s)
	}
}

// Round trip: serialize → write → load → compare is a fixed point, and a
// second marshal is byte-identical (diff-stability).
func TestRoundTripFixedPoint(t *testing.T) {
	dir := t.TempDir()
	a := sample()
	b1, err := a.MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}
	if err := Write(dir, a); err != nil {
		t.Fatal(err)
	}
	back, err := Load(filepath.Join(dir, Filename("figure-x")))
	if err != nil {
		t.Fatal(err)
	}
	b2, err := back.MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("round trip not byte-identical:\n%s\nvs\n%s", b1, b2)
	}
	rep, err := Compare(a, back)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("self-comparison after round trip drifted:\n%s", rep)
	}
	if rep.Checked != 4 {
		t.Fatalf("checked %d metrics, want 4", rep.Checked)
	}
}

func TestMarshalSortsMetrics(t *testing.T) {
	a := New("z", Exact())
	a.Add("b/metric", 2)
	a.Add("a/metric", 1)
	b, err := a.MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}
	if ia, ib := bytes.Index(b, []byte("a/metric")), bytes.Index(b, []byte("b/metric")); ia > ib {
		t.Fatalf("metrics not sorted by id:\n%s", b)
	}
}

func TestDuplicateIDRejected(t *testing.T) {
	a := New("dup", Exact())
	a.Add("x", 1)
	a.Add("x", 2)
	if _, err := a.MarshalCanonical(); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate id not rejected: %v", err)
	}
}

func TestBadNameRejected(t *testing.T) {
	for _, name := range []string{"", "a b", "a/b"} {
		a := New(name, Exact())
		a.Add("x", 1)
		if _, err := a.MarshalCanonical(); err == nil {
			t.Errorf("name %q not rejected", name)
		}
	}
}

func TestLoadDir(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"bbb", "aaa"} {
		a := New(name, Exact())
		a.Add("x", 1)
		if err := Write(dir, a); err != nil {
			t.Fatal(err)
		}
	}
	// Non-artifact files are ignored.
	if err := os.WriteFile(filepath.Join(dir, "README.txt"), []byte("hi"), 0o644); err != nil {
		t.Fatal(err)
	}
	arts, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(arts) != 2 || arts[0].Name != "aaa" || arts[1].Name != "bbb" {
		t.Fatalf("LoadDir = %v", arts)
	}
}

func TestLoadDirEmpty(t *testing.T) {
	if _, err := LoadDir(t.TempDir()); err == nil {
		t.Fatal("empty golden directory not rejected")
	}
}

func TestLoadCorrupt(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(p, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(p); err == nil {
		t.Fatal("corrupt artifact not rejected")
	}
}

// TestMarshalCanonicalEdges pins three outputs the direct writer must
// reproduce: null for nil metrics, [] for empty ones, and encoding/json's
// error for a NaN value.
func TestMarshalCanonicalEdges(t *testing.T) {
	a := New("edges", Exact())
	b, err := a.MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}
	want := "{\n  \"name\": \"edges\",\n  \"schema\": 1,\n  \"default_tolerance\": {},\n  \"metrics\": null\n}\n"
	if string(b) != want {
		t.Errorf("nil metrics:\n got %q\nwant %q", b, want)
	}
	a.Metrics = []Metric{}
	if b, err = a.MarshalCanonical(); err != nil {
		t.Fatal(err)
	}
	if want := strings.Replace(want, "null", "[]", 1); string(b) != want {
		t.Errorf("empty metrics:\n got %q\nwant %q", b, want)
	}
	a.Add("x", math.NaN())
	if _, err := a.MarshalCanonical(); err == nil || err.Error() != "json: unsupported value: NaN" {
		t.Errorf("NaN value: err = %v, want encoding/json's unsupported-value error", err)
	}
}

// canonicalRef is the writer MarshalCanonical replaced, kept as its
// reference: encoding/json's indented encoding of the normalized
// artifact and a newline.
func canonicalRef(a *Artifact) ([]byte, error) {
	b, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// sameAsRef fails t unless MarshalCanonical and canonicalRef agree on
// a, once normalized: the same bytes, or the same error. It returns the
// bytes.
func sameAsRef(t *testing.T, a *Artifact) []byte {
	t.Helper()
	if err := a.normalize(); err != nil {
		t.Fatal(err)
	}
	want, wantErr := canonicalRef(a)
	got, err := a.MarshalCanonical()
	if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
		t.Fatalf("%s: error %v, json.MarshalIndent %v", a.Name, err, wantErr)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: bytes differ from json.MarshalIndent:\n got %q\nwant %q", a.Name, got, want)
	}
	return got
}

// TestMarshalCanonicalGoldenBytes holds the writer to json.MarshalIndent
// on every checked-in artifact, and to the file bytes themselves.
func TestMarshalCanonicalGoldenBytes(t *testing.T) {
	dir := filepath.Join("..", "..", "testdata", "golden")
	arts, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range arts {
		b := sameAsRef(t, a)
		file, err := os.ReadFile(filepath.Join(dir, Filename(a.Name)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b, file) {
			t.Errorf("%s: load and marshal does not give back the file", a.Name)
		}
	}
}

// FuzzMarshalCanonical holds the direct writer to json.MarshalIndent on
// artifacts with fuzzed names, notes, IDs, units, values and bands. The
// shape byte picks nil, empty or two metrics (bits 0-1), a band on the
// second metric (bit 2) and a non-zero default band (bit 3).
func FuzzMarshalCanonical(f *testing.F) {
	negZero := math.Copysign(0, -1)
	f.Add("fig", "note", "CG/Serial/cpi", "CG/HT on -4-1/speedup", "ns", 2.25, 1.832, 0.1, 1e-9, 0.2, uint64(1), uint8(2|4|8))
	f.Add("a<b>&c", "<&>  ", "id\x01\x1f\"\\", "é\xff\xfe", "\x7f", negZero, 1e-7, negZero, negZero, 1e21, uint64(0), uint8(3|4))
	f.Add("x", "", "a", "b", "", 1e-6, 9.99999e-7, 5e-324, math.MaxFloat64, -1e-300, uint64(math.MaxUint64), uint8(2))
	f.Add("x", "", "a", "b", "", 123456789.0, 1e20, 0.0, 0.0, 0.0, uint64(7), uint8(0))
	f.Add("x", "", "a", "b", "", 0.0, 0.0, 0.0, 0.0, 0.0, uint64(0), uint8(1|8))
	f.Add("x", "", "a", "a", "", 1.0, 2.0, 0.0, 0.0, 0.0, uint64(0), uint8(2))
	f.Add("x", "", "", "b", "", 1.0, 2.0, 0.0, 0.0, 0.0, uint64(0), uint8(2))
	f.Add("x y", "", "a", "b", "", 1.0, 2.0, 0.0, 0.0, 0.0, uint64(0), uint8(2))
	f.Add("x", "", "a", "b", "u", math.NaN(), 1.0, 0.0, 0.0, 0.0, uint64(0), uint8(2))
	f.Add("x", "", "a", "b", "u", 1.0, math.Inf(1), 0.0, 0.0, 0.0, uint64(0), uint8(2))
	f.Add("x", "", "a", "b", "u", 1.0, 2.0, math.Inf(-1), 0.0, 0.0, uint64(0), uint8(2))
	f.Add("x", "", "a", "b", "u", 1.0, 2.0, 0.0, math.NaN(), 0.0, uint64(0), uint8(2|4))
	f.Add("x", "", "a", "b", "u", 1.0, 2.0, 0.0, 0.0, math.Inf(1), uint64(0), uint8(8))
	f.Fuzz(func(t *testing.T, name, note, id1, id2, unit string, v1, v2, scale, abs, rel float64, seed uint64, shape uint8) {
		a := New(name, Exact())
		a.Note, a.Scale, a.Seed = note, scale, seed
		band := Tolerance{Abs: abs, Rel: rel}
		if shape&8 != 0 {
			a.DefaultTol = band
		}
		switch shape & 3 {
		case 1:
			a.Metrics = []Metric{}
		case 2, 3:
			a.AddUnit(id1, v1, unit)
			if shape&4 != 0 {
				a.AddTol(id2, v2, band)
			} else {
				a.Add(id2, v2)
			}
		}
		if a.normalize() != nil {
			if _, err := a.MarshalCanonical(); err == nil {
				t.Fatal("MarshalCanonical accepts an artifact normalize rejects")
			}
			return
		}
		sameAsRef(t, a)
	})
}

// synthetic builds an artifact shaped like a warm pass's output: n
// metrics over benchmark, configuration and metric names, in shuffled
// order, every seventh with its own band and every thirteenth with a
// unit.
func synthetic(n int) *Artifact {
	a := New("synthetic", Relative(1e-6))
	a.Scale, a.Seed, a.Note = 0.1, 1, "synthetic warm-pass artifact"
	benches := []string{"BT", "CG", "EP", "FT", "IS", "LU", "MG", "SP"}
	cfgs := []string{"Serial", "HT on -2-1", "HT off -2-1", "HT on -4-1", "HT off -4-2", "HT on -4-2", "HT on -8-2"}
	names := []string{"branch_pred_rate", "cpi", "dtlb_normalized", "l1_miss_rate", "l2_miss_rate", "speedup", "stalled_pct"}
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("%s/%s/%s/%d", benches[i%len(benches)], cfgs[i/len(benches)%len(cfgs)], names[i%len(names)], i)
		v := float64(i*7919%1000003) / 997 * math.Pow(10, float64(i%9-4))
		switch {
		case i%7 == 0:
			a.AddTol(id, v, Tolerance{Abs: 0.5, Rel: 1e-3})
		case i%13 == 0:
			a.AddUnit(id, v, "ns")
		default:
			a.Add(id, v)
		}
	}
	rand.New(rand.NewSource(1)).Shuffle(len(a.Metrics), func(i, j int) {
		a.Metrics[i], a.Metrics[j] = a.Metrics[j], a.Metrics[i]
	})
	return a
}

// TestMarshalCanonicalAllocs guards that the writer allocates its
// buffer once, however many metrics the artifact holds.
func TestMarshalCanonicalAllocs(t *testing.T) {
	for _, n := range []int{10, 2600} {
		a := synthetic(n)
		sameAsRef(t, a)
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := a.MarshalCanonical(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 1 {
			t.Errorf("%d metrics: MarshalCanonical makes %.0f allocations, want 1", n, allocs)
		}
	}
}

func BenchmarkMarshalCanonical(b *testing.B) {
	a := synthetic(2600)
	if _, err := a.MarshalCanonical(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.MarshalCanonical(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompare(b *testing.B) {
	gold, live := synthetic(2600), synthetic(2600)
	live.Metrics[len(live.Metrics)/2].Value++
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compare(gold, live); err != nil {
			b.Fatal(err)
		}
	}
}
