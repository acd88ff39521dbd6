package golden_test

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"xeonomp/internal/core"
)

// TestMarshalCanonicalLiveStudies holds the direct writer to
// json.MarshalIndent on the artifacts of live single, pair and cross
// studies at scale 0.01.
func TestMarshalCanonicalLiveStudies(t *testing.T) {
	for _, name := range core.StudyNames() {
		t.Run(name, func(t *testing.T) {
			if name == "cross" && testing.Short() {
				t.Skip("153-cell cross study")
			}
			s, err := core.NewStudy(name)
			if err != nil {
				t.Fatal(err)
			}
			opt, err := core.NewOptions(core.WithScale(0.01), core.WithWorkers(2))
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Run(context.Background(), opt); err != nil {
				t.Fatal(err)
			}
			arts, err := s.Artifacts()
			if err != nil {
				t.Fatal(err)
			}
			for _, a := range arts {
				got, err := a.MarshalCanonical()
				if err != nil {
					t.Fatal(err)
				}
				want, err := json.MarshalIndent(a, "", "  ")
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, append(want, '\n')) {
					t.Errorf("%s: MarshalCanonical differs from json.MarshalIndent", a.Name)
				}
			}
		})
	}
}
