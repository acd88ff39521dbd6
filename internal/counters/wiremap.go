package counters

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
)

// A Set's JSON form is a flat object of its non-zero events by name —
// the one counter encoding the run cache, the study journals, the HTTP
// wire (api.CellProgram.Counters) and the JSON export share. Names, not ordinals, so a
// payload written before an event was added (or reordered) still
// decodes, and one written by foreign code fails loudly instead of
// silently misattributing counts. The codec writes exactly the bytes
// encoding/json writes for the equivalent map[string]uint64 and accepts
// exactly what that map accepts, without building the map: existing
// caches and journals stay readable, and a warm cell hit skips a map
// allocation per program.

// eventByName maps counter-event names back to events for decoding.
var eventByName = func() map[string]Event {
	m := map[string]Event{}
	for _, e := range Events() {
		m[e.String()] = e
	}
	return m
}()

// sortedEvents lists the events in name order, the key order
// encoding/json gives a map.
var sortedEvents = func() []Event {
	es := Events()
	slices.SortFunc(es, func(a, b Event) int { return strings.Compare(a.String(), b.String()) })
	return es
}()

// MarshalJSON writes the non-zero events as a flat object keyed by
// event name in sorted order; an all-zero set writes {}. The value
// receiver makes a Set encode the same whether or not it is addressable.
func (s Set) MarshalJSON() ([]byte, error) {
	b := make([]byte, 0, 32*NumEvents)
	b = append(b, '{')
	for _, e := range sortedEvents {
		v := s.c[e]
		if v == 0 {
			continue
		}
		if len(b) > 1 {
			b = append(b, ',')
		}
		b = append(b, '"')
		b = append(b, eventNames[e]...)
		b = append(b, '"', ':')
		b = strconv.AppendUint(b, v, 10)
	}
	return append(b, '}'), nil
}

// UnmarshalJSON replaces s with the counts of a flat object, under the
// rules encoding/json applies to a map[string]uint64 plus a name lookup
// (see CutSet). A null set leaves s unchanged. On error s is unchanged.
func (s *Set) UnmarshalJSON(data []byte) error {
	d := skipSpace(data)
	if rest, ok := bytes.CutPrefix(d, []byte("null")); ok && len(skipSpace(rest)) == 0 {
		return nil
	}
	out, rest, err := CutSet(d)
	if err != nil {
		return err
	}
	if len(skipSpace(rest)) != 0 {
		return errSyntax
	}
	*s = out
	return nil
}

// CutSet parses the flat JSON object at the head of d and returns its
// counts and the bytes after the closing brace. It is the one counter
// scanner: UnmarshalJSON wraps it, and the run-cache payload decoder
// calls it in place. An unknown event name or a value that is not a
// uint64 is an error, a repeated name keeps its last value, a null value
// counts zero, and an escaped name is unescaped before the lookup.
// Whitespace is allowed inside the object but not before it.
func CutSet(d []byte) (Set, []byte, error) {
	var out Set
	d, ok := cutByte(d, '{')
	if !ok {
		return Set{}, nil, errors.New("counters: encoded set is not a JSON object")
	}
	next := 0 // sortedEvents index one past the last name found there
	d, closed := cutByte(skipSpace(d), '}')
	for !closed {
		name, rest, err := cutName(d)
		if err != nil {
			return Set{}, nil, err
		}
		if d, ok = cutByte(skipSpace(rest), ':'); !ok {
			return Set{}, nil, errSyntax
		}
		v, rest, err := cutCount(skipSpace(d))
		if err != nil {
			return Set{}, nil, err
		}
		e, known := lookup(name, &next)
		if !known {
			return Set{}, nil, fmt.Errorf("counters: unknown counter event %q in encoded set", name)
		}
		out.c[e] = v
		if d, closed = cutByte(skipSpace(rest), '}'); !closed {
			if d, ok = cutByte(d, ','); !ok {
				return Set{}, nil, errSyntax
			}
			d = skipSpace(d)
		}
	}
	return out, d, nil
}

// lookup returns the event called name. MarshalJSON writes names in
// sortedEvents order, so the scan starts at *next, one past the previous
// name's place there, and only a name out of that order costs a map
// lookup.
func lookup(name []byte, next *int) (Event, bool) {
	for k := *next; k < len(sortedEvents); k++ {
		if eventNames[sortedEvents[k]] == string(name) {
			*next = k + 1
			return sortedEvents[k], true
		}
	}
	e, ok := eventByName[string(name)]
	return e, ok
}

// cutByte cuts c from the head of d.
func cutByte(d []byte, c byte) ([]byte, bool) {
	if len(d) > 0 && d[0] == c {
		return d[1:], true
	}
	return d, false
}

var errSyntax = errors.New("counters: malformed encoded set")

// skipSpace drops leading JSON whitespace.
func skipSpace(d []byte) []byte {
	for len(d) > 0 && (d[0] == ' ' || d[0] == '\t' || d[0] == '\n' || d[0] == '\r') {
		d = d[1:]
	}
	return d
}

// cutName parses the JSON string at the head of d. A name without
// escapes is returned in place; an escaped one is unescaped by
// encoding/json, as a map key would be.
func cutName(d []byte) ([]byte, []byte, error) {
	if len(d) == 0 || d[0] != '"' {
		return nil, d, errSyntax
	}
	escaped := false
	for i := 1; i < len(d); i++ {
		switch c := d[i]; {
		case c == '"':
			if !escaped {
				return d[1:i], d[i+1:], nil
			}
			var name string
			if err := json.Unmarshal(d[:i+1], &name); err != nil {
				return nil, d, errSyntax
			}
			return []byte(name), d[i+1:], nil
		case c == '\\':
			escaped = true
			i++
		case c < 0x20:
			return nil, d, errSyntax
		}
	}
	return nil, d, errSyntax
}

// cutCount parses the count at the head of d: null (zero) or a JSON
// integer that fits a uint64.
func cutCount(d []byte) (uint64, []byte, error) {
	if rest, ok := bytes.CutPrefix(d, []byte("null")); ok {
		return 0, rest, nil
	}
	if len(d) == 0 || d[0] < '0' || d[0] > '9' {
		return 0, d, errors.New("counters: encoded count is not a uint64")
	}
	if d[0] == '0' { // JSON forbids leading zeros
		return 0, d[1:], nil
	}
	var v uint64
	i := 0
	for ; i < len(d) && '0' <= d[i] && d[i] <= '9'; i++ {
		digit := uint64(d[i] - '0')
		if v > (math.MaxUint64-digit)/10 {
			return 0, d, errors.New("counters: encoded count overflows uint64")
		}
		v = v*10 + digit
	}
	return v, d[i:], nil
}
