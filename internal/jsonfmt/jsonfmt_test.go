package jsonfmt

import (
	"bytes"
	"encoding/json"
	"math"
	"slices"
	"strconv"
	"testing"
)

// The tests here hold each rule to encoding/json on its edge cases, so
// that a break in a rule fails in this package and not only in the
// differential fuzz tests of the codecs built on it.

func TestAppendFloat(t *testing.T) {
	for _, f := range []float64{
		0, math.Copysign(0, -1), 5e-324, 1e-7, 9.999999e-7, 1e-6, 0.5, -2.25,
		1e20, 1e21, -1e21, 123456789012345678, math.MaxFloat64, -math.MaxFloat64,
	} {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		got, err := AppendFloat([]byte("x"), f)
		if err != nil || string(got) != "x"+string(want) {
			t.Errorf("AppendFloat(%g) = %q, %v; want %q", f, got, err, "x"+string(want))
		}
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		_, want := json.Marshal(f)
		got, err := AppendFloat(nil, f)
		if err == nil || want == nil || err.Error() != want.Error() || got != nil {
			t.Errorf("AppendFloat(%g) = %q, %v; want nil, %v", f, got, err, want)
		}
	}
}

// stringCases are the bytes where encoding/json's string rules differ
// from copying: each HTML character alone, the JS line separator,
// invalid UTF-8, a control character, and the two characters every
// encoder escapes.
var stringCases = []string{
	"", "CG", "HT on -2-1", "a<b", "a>b", "a&b", "a\u2028b", "\xff", "a\x00b", `say "hi"`, `back\slash`, "é",
}

func TestAppendString(t *testing.T) {
	for _, s := range stringCases {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendString([]byte("x"), s); string(got) != "x"+string(want) {
			t.Errorf("AppendString(%q) = %q, want %q", s, got, "x"+string(want))
		}
	}
}

// TestCutString reads each case twice: as json.Marshal writes it, and
// written raw between quotes. encoding/json decoding the first value of
// the same bytes is the reference for the value, for what is left and
// for whether the string is well formed.
func TestCutString(t *testing.T) {
	for _, s := range stringCases {
		enc, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range [][]byte{enc, []byte(`"` + s + `"`)} {
			in := append(d[:len(d):len(d)], ",1"...)
			var want string
			dec := json.NewDecoder(bytes.NewReader(in))
			wantOK := dec.Decode(&want) == nil
			wantRest := in[dec.InputOffset():]
			val, rest, ok := CutString(in)
			if ok != wantOK {
				t.Errorf("CutString(%q): ok %v, encoding/json ok %v", in, ok, wantOK)
				continue
			}
			if !ok {
				if !bytes.Equal(rest, in) {
					t.Errorf("CutString(%q) failed but consumed input: rest %q", in, rest)
				}
				continue
			}
			if string(val) != want || !bytes.Equal(rest, wantRest) {
				t.Errorf("CutString(%q) = %q, rest %q; want %q, rest %q", in, val, rest, want, wantRest)
			}
		}
	}
}

// scanWhole runs one Scanner read over d and reports whether it read d
// to its end: a value the layout's next literal would not follow, like
// the 1 after the 0 of 01, fails the same way a bad value does.
func scanWhole[T any](d string, read func(*Scanner) T) (T, bool) {
	s := NewScanner([]byte(d))
	v := read(&s)
	return v, !s.Failed() && len(s.Unread()) == 0
}

func TestScannerInt64(t *testing.T) {
	maxInt, minInt := strconv.FormatInt(math.MaxInt64, 10), strconv.FormatInt(math.MinInt64, 10)
	for _, d := range []string{
		"0", "-0", "42", "-7", maxInt, minInt, "9223372036854775808", "-9223372036854775809",
		"18446744073709551616", "01", "-", "", "1.0", "1e3", "+1",
	} {
		var want int64
		wantErr := json.Unmarshal([]byte(d), &want)
		got, ok := scanWhole(d, (*Scanner).Int64)
		if ok != (wantErr == nil) || (ok && got != want) {
			t.Errorf("Int64(%q) = %d, ok %v; encoding/json %d, %v", d, got, ok, want, wantErr)
		}
	}
}

func TestScannerFloat(t *testing.T) {
	for _, d := range []string{
		"0", "-0", "1.5", "-2.25e-3", "1E5", "1e+2", "5e-324", "1.7976931348623157e308",
		"1.", "1e", "1e+", ".5", "01", "-", "1e400", "-1e400", "NaN",
	} {
		var want float64
		wantErr := json.Unmarshal([]byte(d), &want)
		got, ok := scanWhole(d, (*Scanner).Float)
		if ok != (wantErr == nil) || (ok && math.Float64bits(got) != math.Float64bits(want)) {
			t.Errorf("Float(%q) = %g, ok %v; encoding/json %g, %v", d, got, ok, want, wantErr)
		}
	}
}

func TestList(t *testing.T) {
	for _, d := range []string{"null", "[]", "[1]", "[1,2,3,4,5,6,7,8,9]", "[1,]", "[", "nul"} {
		var want []int
		wantErr := json.Unmarshal([]byte(d), &want)
		got, ok := scanWhole(d, func(s *Scanner) []int { return List(s, (*Scanner).Int) })
		if ok != (wantErr == nil) {
			t.Errorf("List(%q): ok %v, encoding/json %v", d, ok, wantErr)
			continue
		}
		if ok && ((got == nil) != (want == nil) || !slices.Equal(got, want)) {
			t.Errorf("List(%q) = %#v, encoding/json %#v", d, got, want)
		}
	}
}
