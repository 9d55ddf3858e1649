package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"iotsentinel/internal/editdist"
	"iotsentinel/internal/fingerprint"
	"iotsentinel/internal/ml/rf"
)

// Identifier persistence: the trained classifier bank, the
// discrimination references and the training pool are saved so a
// reloaded identifier answers identically and still supports WithType.

// Version 2 carries fingerprints in the packed-F codec; version 1 wrote
// them as float rows and is refused by name.
const wireVersion = 2

type wireIdentifier struct {
	Version int            `json:"version"`
	Config  Config         `json:"config"`
	Types   []wireTypeData `json:"types"`
}

type wireTypeData struct {
	ID string `json:"id"`
	// Forest is the rf wire format, embedded verbatim.
	Forest json.RawMessage `json:"forest"`
	// Refs and Pool carry fingerprints F back to back, each in the
	// packed-F codec (fingerprint.AppendF), base64 in the JSON. A loaded
	// bank keeps them as F, as a trained one does: F′ is derived only
	// for the pool rows a later WithType draws.
	Refs []byte `json:"refs"`
	Pool []byte `json:"pool"`
}

// Save serializes the identifier to w as versioned JSON. The worker
// bound is a runtime setting, not model state, so it is not saved:
// identifiers trained at different Workers values serialize to
// identical bytes.
func (id *Identifier) Save(w io.Writer) error {
	out := wireIdentifier{Version: wireVersion, Config: id.cfg}
	for _, t := range id.types {
		m := id.models[t]
		var fbuf bytes.Buffer
		if err := m.forest.Save(&fbuf); err != nil {
			return fmt.Errorf("core: save %q: %w", t, err)
		}
		td := wireTypeData{ID: string(t), Forest: fbuf.Bytes()}
		var err error
		for _, ref := range m.refs.Refs() {
			if td.Refs, err = fingerprint.AppendF(td.Refs, ref); err != nil {
				return fmt.Errorf("core: save %q: %w", t, err)
			}
		}
		for _, f := range id.pool[t] {
			if td.Pool, err = fingerprint.AppendF(td.Pool, f); err != nil {
				return fmt.Errorf("core: save %q: %w", t, err)
			}
		}
		out.Types = append(out.Types, td)
	}
	if err := json.NewEncoder(w).Encode(out); err != nil {
		return fmt.Errorf("core: save: %w", err)
	}
	return nil
}

// LoadIdentifier deserializes an identifier previously written by Save.
func LoadIdentifier(r io.Reader) (*Identifier, error) {
	var in wireIdentifier
	err := json.NewDecoder(r).Decode(&in)
	// Checked before err: version 1's float rows fail the decode as
	// mistyped fields, which encoding/json reports only after filling in
	// every other field, the version among them.
	if in.Version == 1 {
		return nil, fmt.Errorf("core: load: model file version 1 (fingerprints as float rows) is no longer read: retrain the bank and save it again (version %d)", wireVersion)
	}
	if err != nil {
		return nil, fmt.Errorf("core: load: %w", err)
	}
	if in.Version != wireVersion {
		return nil, fmt.Errorf("core: load: unsupported version %d", in.Version)
	}
	if len(in.Types) == 0 {
		return nil, fmt.Errorf("core: load: no types")
	}
	cfg, err := in.Config.normalize()
	if err != nil {
		return nil, fmt.Errorf("core: load: %w", err)
	}
	id := &Identifier{
		cfg:    cfg,
		models: make(map[TypeID]*typeModel, len(in.Types)),
		pool:   make(map[TypeID][]fingerprint.F, len(in.Types)),
	}
	for _, td := range in.Types {
		t := TypeID(td.ID)
		if _, dup := id.models[t]; dup {
			return nil, fmt.Errorf("core: load: duplicate type %q", t)
		}
		forest, err := rf.Load(bytes.NewReader(td.Forest))
		if err != nil {
			return nil, fmt.Errorf("core: load %q: %w", t, err)
		}
		// The forest wire format cannot know the vector width; bound
		// every split to the F′ dimensionality here so a tampered model
		// cannot make the first classification panic.
		if err := forest.ValidateFeatures(fingerprint.FPrimeLen); err != nil {
			return nil, fmt.Errorf("core: load %q: %w", t, err)
		}
		refs, err := decodeFs(td.Refs)
		if err != nil {
			return nil, fmt.Errorf("core: load %q refs: %w", t, err)
		}
		id.models[t] = &typeModel{forest: forest, refs: editdist.NewRefSet(refs)}
		pool, err := decodeFs(td.Pool)
		if err != nil {
			return nil, fmt.Errorf("core: load %q pool: %w", t, err)
		}
		if len(pool) == 0 {
			return nil, fmt.Errorf("core: load %q: empty training pool", t)
		}
		id.pool[t] = pool
	}
	id.reindex()
	return id, nil
}

// decodeFs reads the fingerprints packed back to back in p.
func decodeFs(p []byte) ([]fingerprint.F, error) {
	var out []fingerprint.F
	for len(p) > 0 {
		f, rest, err := fingerprint.DecodeF(p)
		if err != nil {
			return nil, fmt.Errorf("fingerprint %d: %w", len(out), err)
		}
		out = append(out, f)
		p = rest
	}
	return out, nil
}
