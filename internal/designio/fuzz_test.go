package designio

import (
	"testing"

	"xring/internal/core"
	"xring/internal/noc"
)

// FuzzLoad ensures arbitrary (including corrupted) design files never
// panic the loader: they either load a valid design or return an error.
// Validation runs PassesNode over every channel and opening, so the
// corpus (testdata/fuzz/FuzzLoad) holds openings and channel endpoints
// at and past the ends of the node range.
func FuzzLoad(f *testing.F) {
	res, err := core.Synthesize(noc.Floorplan8(), core.Options{MaxWL: 8, WithPDN: true})
	if err != nil {
		f.Fatal(err)
	}
	blob, err := Save(res.Design)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"version":1,"nodes":[],"tour":[]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := Load(data)
		if err == nil {
			// A successfully loaded design must re-validate.
			if verr := d.Validate(); verr != nil {
				t.Fatalf("Load returned an invalid design: %v", verr)
			}
		}
	})
}
