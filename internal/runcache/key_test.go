package runcache_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"xeonomp/internal/core"
	"xeonomp/internal/machine"
)

// TestKeyHashIsCanonicalJSON pins Hash to hex(SHA-256(json.Marshal(k)))
// for every cell key of the three studies on both platforms, so the
// memoized encodings can never drift from the plain one. Each key is
// hashed twice; the second call is served from the memos.
func TestKeyHashIsCanonicalJSON(t *testing.T) {
	for _, platform := range []struct {
		name string
		m    machine.Config
	}{{"PaxvilleSMP", machine.PaxvilleSMP()}, {"PrestoniaSMP", machine.PrestoniaSMP()}} {
		opt := core.DefaultOptions()
		opt.Machine = &platform.m
		for _, name := range core.StudyNames() {
			study, err := core.NewStudy(name)
			if err != nil {
				t.Fatal(err)
			}
			cells, err := study.Cells()
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range cells {
				k := core.CacheKey(c.Workload, c.Config, opt)
				b, err := json.Marshal(k)
				if err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256(b)
				want := hex.EncodeToString(sum[:])
				for i := 0; i < 2; i++ {
					got, err := k.Hash()
					if err != nil {
						t.Fatal(err)
					}
					if got != want {
						t.Fatalf("%s|%s on %s, call %d: hash %s, want %s", c.Workload.Name(), c.Config.Name, platform.name, i+1, got, want)
					}
				}
			}
		}
	}
}
