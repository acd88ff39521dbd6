// Package jsonfmt holds the JSON rules of the direct codecs: the bytes
// encoding/json writes for a float64 and for a string, and a scanner of
// one fixed layout. The golden artifact writer, the run-cache payload
// writer and reader, the cell key, the configuration codec and the cell
// response codec all build on it, so each writes exactly what
// encoding/json would without walking the value by reflection. Every
// codec built on it keeps a fuzz test with encoding/json as the
// reference.
package jsonfmt

import (
	"encoding/json"
	"math"
	"strconv"
)

// AppendFloat appends f as encoding/json writes a float64: the shortest
// decimal that reads back as f, in exponent form only below 1e-6 or from
// 1e21 up, with a one-digit negative exponent unpadded (1e-7, not
// 1e-07). NaN and ±Inf have no JSON form; they fail with the error
// json.Marshal gives them.
func AppendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		_, err := json.Marshal(f)
		return nil, err
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b, nil
}

// needsEscape marks the bytes encoding/json does not copy into a string
// as they are: control characters, the quote, the backslash, the HTML
// characters <, > and &, and every byte from 0x80 up, which it checks
// as UTF-8.
var needsEscape = func() (t [256]bool) {
	for c := range t {
		t[c] = c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&'
	}
	return t
}()

// AppendString appends s as json.Marshal writes it: quoted as is when
// no byte of it needs an escape, encoded by json.Marshal, for that
// string alone, otherwise.
func AppendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if needsEscape[s[i]] {
			q, _ := json.Marshal(s) // a string always encodes
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// CutString parses the JSON string at the head of d and returns its
// value and the bytes after the closing quote. A string of printable
// ASCII without escapes, as AppendString writes every name the
// simulator uses, is returned in place; any other is unescaped by
// encoding/json, for that string alone, so invalid UTF-8 reads as
// U+FFFD exactly as it would there. ok is false when d does not start
// with a well-formed string.
func CutString(d []byte) (val, rest []byte, ok bool) {
	if len(d) == 0 || d[0] != '"' {
		return nil, d, false
	}
	plain := true
	for i := 1; i < len(d); i++ {
		switch c := d[i]; {
		case c == '"':
			if plain {
				return d[1:i], d[i+1:], true
			}
			var s string
			if json.Unmarshal(d[:i+1], &s) != nil {
				return nil, d, false
			}
			return []byte(s), d[i+1:], true
		case c == '\\':
			plain = false
			i++
		case c < 0x20:
			return nil, d, false
		case c >= 0x80:
			plain = false
		}
	}
	return nil, d, false
}

// Scanner reads JSON in one fixed layout: the literal keys and
// punctuation a direct writer emits, with the values between them. The
// first mismatch marks the scan failed and leaves the unread input at
// it; every later call then does nothing, so a decoder reads as the
// layout and checks Failed once at the end.
type Scanner struct {
	d   []byte
	bad bool
}

// NewScanner returns a Scanner over d.
func NewScanner(d []byte) Scanner { return Scanner{d: d} }

// Failed reports whether the input left the layout.
func (s *Scanner) Failed() bool { return s.bad }

// Unread returns the input not consumed yet; after a failure, the input
// from the mismatch on.
func (s *Scanner) Unread() []byte { return s.d }

// Resume continues the scan at rest, the tail of Unread that a parser
// outside the Scanner left; a non-nil err marks the scan failed.
func (s *Scanner) Resume(rest []byte, err error) {
	if s.bad {
		return
	}
	if err != nil {
		s.bad = true
		return
	}
	s.d = rest
}

// Opt consumes l if the input continues with it and reports whether it
// did.
func (s *Scanner) Opt(l string) bool {
	if s.bad || len(s.d) < len(l) || string(s.d[:len(l)]) != l {
		return false
	}
	s.d = s.d[len(l):]
	return true
}

// Lit consumes l, which the layout requires here.
func (s *Scanner) Lit(l string) {
	if !s.Opt(l) {
		s.bad = true
	}
}

// StrBytes consumes a JSON string and returns its value (see CutString).
func (s *Scanner) StrBytes() []byte {
	if s.bad {
		return nil
	}
	v, rest, ok := CutString(s.d)
	if !ok {
		s.bad = true
		return nil
	}
	s.d = rest
	return v
}

// Str consumes a JSON string.
func (s *Scanner) Str() string { return string(s.StrBytes()) }

// Bool consumes a JSON boolean.
func (s *Scanner) Bool() bool {
	if s.Opt("true") {
		return true
	}
	s.Lit("false")
	return false
}

// Int64 consumes a JSON integer in int64 range: -?(0|[1-9][0-9]*), what
// encoding/json accepts for an int64 field.
func (s *Scanner) Int64() int64 {
	if s.bad {
		return 0
	}
	d := s.d
	neg := len(d) > 0 && d[0] == '-'
	if neg {
		d = d[1:]
	}
	if len(d) == 0 || d[0] < '0' || d[0] > '9' {
		s.bad = true
		return 0
	}
	var u uint64
	i := 1
	if u = uint64(d[0] - '0'); u != 0 {
		for ; i < len(d) && '0' <= d[i] && d[i] <= '9'; i++ {
			if u > (math.MaxUint64-9)/10 {
				s.bad = true
				return 0
			}
			u = u*10 + uint64(d[i]-'0')
		}
	}
	limit := uint64(math.MaxInt64)
	if neg {
		limit++
	}
	if u > limit {
		s.bad = true
		return 0
	}
	s.d = d[i:]
	if neg {
		return -int64(u)
	}
	return int64(u)
}

// Int consumes a JSON integer in int range.
func (s *Scanner) Int() int {
	v := s.Int64()
	if int64(int(v)) != v {
		s.bad = true
	}
	return int(v)
}

// Float consumes a JSON number that fits a float64, read as
// encoding/json reads one into a float64 field: the number's text
// through strconv.ParseFloat, so a value out of range fails.
func (s *Scanner) Float() float64 {
	if s.bad {
		return 0
	}
	d := s.d
	i := 0
	if i < len(d) && d[i] == '-' {
		i++
	}
	switch {
	case i < len(d) && d[i] == '0':
		i++
	case i < len(d) && '1' <= d[i] && d[i] <= '9':
		i = digits(d, i)
	default:
		s.bad = true
		return 0
	}
	if i < len(d) && d[i] == '.' {
		if j := digits(d, i+1); j > i+1 {
			i = j
		} else {
			s.bad = true
			return 0
		}
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		j := i + 1
		if j < len(d) && (d[j] == '+' || d[j] == '-') {
			j++
		}
		if k := digits(d, j); k > j {
			i = k
		} else {
			s.bad = true
			return 0
		}
	}
	f, err := strconv.ParseFloat(string(d[:i]), 64)
	if err != nil {
		s.bad = true
		return 0
	}
	s.d = d[i:]
	return f
}

// digits returns the index of the first non-digit of d at or after i.
func digits(d []byte, i int) int {
	for i < len(d) && '0' <= d[i] && d[i] <= '9' {
		i++
	}
	return i
}

// List consumes a JSON array of elements read by elem, or null. As in
// encoding/json, null gives a nil slice and [] an empty one. The
// elements are gathered on the stack and copied out once.
func List[T any](s *Scanner, elem func(*Scanner) T) []T {
	if s.Opt("null") {
		return nil
	}
	s.Lit("[")
	if s.bad {
		return nil
	}
	var buf [8]T
	out := buf[:0]
	if !s.Opt("]") {
		for {
			out = append(out, elem(s))
			if !s.Opt(",") {
				break
			}
		}
		s.Lit("]")
	}
	return append(make([]T, 0, len(out)), out...)
}
