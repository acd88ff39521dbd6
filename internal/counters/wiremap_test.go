package counters

import (
	"encoding/json"
	"testing"
)

// mapDecode is the reference the codec must match: encoding/json into a
// map[string]uint64 field, then a lookup of every name. wrapped is a JSON
// object holding the encoded set under "c".
func mapDecode(wrapped []byte) (map[string]uint64, bool) {
	var in struct {
		C map[string]uint64 `json:"c"`
	}
	if err := json.Unmarshal(wrapped, &in); err != nil {
		return nil, false
	}
	for name := range in.C {
		if _, ok := eventByName[name]; !ok {
			return nil, false
		}
	}
	return in.C, true
}

// FuzzSetJSON holds the counter codec to the map path on any input: the
// codec, reached through json.Unmarshal of a struct field, accepts
// exactly when the map path does and yields the same counts, and a set it
// accepts encodes to the bytes json.Marshal gives the map's non-zero
// entries. A direct UnmarshalJSON call agrees on valid JSON and rejects
// invalid JSON.
func FuzzSetJSON(f *testing.F) {
	var full Set
	for _, e := range Events() {
		full.Add(e, uint64(e)*1_000_003+1)
	}
	fullJSON, err := json.Marshal(full)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(fullJSON)
	for _, seed := range []string{
		`{}`, ` { } `, `null`, ` null `,
		`{"cycles":245336,"instructions":77202,"l2_miss":858}`,
		` { "cycles" : 1 , "tc_miss" : 0 } `,
		`{"cycles":7}`, `{"cycles":7,"cycles\u0000":1}`, `{"cycles\"":1}`,
		`{"cycles":1,"cycles":2}`, `{"cycles":5,"cycles":null}`, `{"cycles":null}`,
		`{"bogus":1}`, `{"":1}`,
		`{"cycles":18446744073709551615}`, `{"cycles":18446744073709551616}`,
		`{"cycles":-1}`, `{"cycles":-0}`, `{"cycles":1.0}`, `{"cycles":1e3}`, `{"cycles":01}`,
		`{"cycles":"1"}`, `{"cycles":true}`, `{"cycles":{}}`, `{"cycles":[1]}`,
		`[]`, `5`, `"cycles"`, `true`,
		`{"cycles":1,}`, `{"cycles":1`, `{"cycles" 1}`, `{cycles:1}`, `{"cycles":1}}`, `nul`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		wrapped := append(append([]byte(`{"c":`), data...), '}')
		ref, refOK := mapDecode(wrapped)
		var in struct {
			C Set `json:"c"`
		}
		ok := json.Unmarshal(wrapped, &in) == nil
		if ok != refOK {
			t.Fatalf("%q: codec accepts %v, map path accepts %v", data, ok, refOK)
		}

		var direct Set
		directOK := direct.UnmarshalJSON(data) == nil
		if json.Valid(data) {
			if directOK != ok || direct != in.C {
				t.Fatalf("%q: direct UnmarshalJSON (accepts %v) disagrees with the struct field (accepts %v)", data, directOK, ok)
			}
		} else if directOK {
			t.Fatalf("%q: direct UnmarshalJSON accepts invalid JSON", data)
		}
		if !ok {
			return
		}

		nonzero := map[string]uint64{}
		for name, v := range ref {
			if v != 0 {
				nonzero[name] = v
			}
		}
		for _, e := range Events() {
			if got, want := in.C.Get(e), ref[e.String()]; got != want {
				t.Fatalf("%q: %s = %d, map path %d", data, e, got, want)
			}
		}
		want, err := json.Marshal(nonzero)
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(in.C)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("%q: encodes as %s, map path %s", data, got, want)
		}
	})
}

func TestOrNil(t *testing.T) {
	var zero, one Set
	one.Inc(Cycles)
	if zero.OrNil() != nil || (*Set)(nil).OrNil() != nil {
		t.Error("an all-zero or nil set must give nil")
	}
	if one.OrNil() != &one {
		t.Error("a set with counts must give itself")
	}
}
