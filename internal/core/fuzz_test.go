package core

import (
	"bytes"
	"encoding/base64"
	"strings"
	"testing"

	"iotsentinel/internal/fingerprint"
)

// FuzzLoadIdentifier feeds arbitrary bytes through the model-file
// reader, the one input a bank takes from disk and from the fleet link.
// LoadIdentifier must be total — reject or accept, never panic — and a
// bank it accepts must identify, and save to a file that loads to the
// same bytes again (forests, references and pool all survived).
func FuzzLoadIdentifier(f *testing.F) {
	id, err := Train(map[TypeID][]fingerprint.Fingerprint{
		"alpha": synthType([]float64{60, 70, 80}, 4, 6, 1),
		"beta":  synthType([]float64{200, 210}, 4, 6, 2),
	}, Config{Seed: 3, Forest: fastConfig(1).Forest})
	if err != nil {
		f.Fatalf("Train: %v", err)
	}
	var buf bytes.Buffer
	if err := id.Save(&buf); err != nil {
		f.Fatalf("Save: %v", err)
	}
	model := buf.String()
	f.Add([]byte(model))
	// The first type's pool block, damaged the ways a block can be: cut
	// inside a row, cut inside a row count, a count that promises rows
	// that are not there, a reserved bit set, and not base64 at all.
	start := strings.Index(model, `"pool":"`) + len(`"pool":"`)
	end := start + strings.IndexByte(model[start:], '"')
	block, err := base64.StdEncoding.DecodeString(model[start:end])
	if err != nil {
		f.Fatalf("pool block: %v", err)
	}
	withPool := func(raw []byte) []byte {
		return []byte(model[:start] + base64.StdEncoding.EncodeToString(raw) + model[end:])
	}
	f.Add(withPool(block[:len(block)-3]))
	f.Add(withPool(append(block[:len(block):len(block)], 0)))
	f.Add(withPool(append([]byte{0xff, 0xff}, block[2:]...)))
	f.Add(withPool(append([]byte{block[0], block[1], block[2] | 0x80}, block[3:]...)))
	f.Add([]byte(model[:start] + "@@" + model[end:]))
	f.Add([]byte(strings.Replace(model, `"version":2`, `"version":1`, 1)))
	f.Add([]byte(`{"version":1,"config":{},"types":[{"id":"a","forest":{},"refs":[[[1]]],"pool":[[[1]]]}]}`))
	f.Add([]byte(`{"version":2,"config":{},"types":[]}`))

	probe := synthType([]float64{60, 70, 80}, 1, 6, 9)[0]
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := LoadIdentifier(bytes.NewReader(data))
		if err != nil {
			return
		}
		got.Identify(probe)
		var once, twice bytes.Buffer
		if err := got.Save(&once); err != nil {
			t.Fatalf("Save of an accepted model: %v", err)
		}
		again, err := LoadIdentifier(bytes.NewReader(once.Bytes()))
		if err != nil {
			t.Fatalf("an accepted model's own save does not load: %v", err)
		}
		if err := again.Save(&twice); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatal("save → load → save changed the model file")
		}
	})
}
