package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"iotsentinel/internal/fingerprint"
	"iotsentinel/internal/packet"
)

// The legacy reader: a state directory written before the binary format
// holds one journal.wal of JSON records and a snapshot.bin that is a
// single JSON frame, fingerprints as 23-float rows. Open reads both (a
// payload that starts with '{' is a legacy one), nothing writes them,
// and the first checkpoint after the upgrade replaces both with binary
// files. The reader goes one release after the writer did.

// decodeEvent parses one journal record of either format.
func decodeEvent(payload []byte) (Event, error) {
	switch {
	case len(payload) > 0 && payload[0] == codecVersion:
		return decodeBinaryEvent(payload)
	case len(payload) > 0 && payload[0] == '{':
		var ev struct {
			Event
			Fingerprint [][]float64 `json:"fingerprint"`
		}
		if err := json.Unmarshal(payload, &ev); err != nil {
			return Event{}, err
		}
		var err error
		ev.Event.Fingerprint, err = rowsF(ev.Fingerprint)
		return ev.Event, err
	}
	return Event{}, errors.New("unknown record version")
}

// rowsF packs legacy float rows.
func rowsF(rows [][]float64) (fingerprint.F, error) {
	fp, err := fingerprint.FromRows(rows)
	return fp.F, err
}

// decodeLegacySnapshot parses the payload of a legacy snapshot's one
// frame.
func decodeLegacySnapshot(payload []byte) (*Snapshot, error) {
	var in struct {
		Version    int            `json:"version"`
		Seq        uint64         `json:"seq"`
		Devices    []DeviceRecord `json:"devices"`
		Quarantine []struct {
			MAC         packet.MAC  `json:"mac"`
			Since       time.Time   `json:"since"`
			Fingerprint [][]float64 `json:"fingerprint"`
		} `json:"quarantine"`
		Learn *struct {
			NextCluster int `json:"nextCluster"`
			Clusters    []struct {
				ClusterRecord
				Members [][][]float64 `json:"members"`
			} `json:"clusters"`
		} `json:"learn"`
	}
	if err := json.Unmarshal(payload, &in); err != nil {
		return nil, err
	}
	if in.Version != 1 {
		return nil, fmt.Errorf("unsupported version %d", in.Version)
	}
	snap := &Snapshot{Seq: in.Seq, Devices: in.Devices}
	var err error
	for _, q := range in.Quarantine {
		rec := QuarantineRecord{MAC: q.MAC, Since: q.Since}
		if rec.Fingerprint, err = rowsF(q.Fingerprint); err != nil {
			return nil, err
		}
		snap.Quarantine = append(snap.Quarantine, rec)
	}
	if in.Learn != nil {
		snap.Learn = &LearnState{NextCluster: in.Learn.NextCluster}
		for _, c := range in.Learn.Clusters {
			for _, rows := range c.Members {
				f, err := rowsF(rows)
				if err != nil {
					return nil, err
				}
				c.ClusterRecord.Members = append(c.ClusterRecord.Members, f)
			}
			snap.Learn.Clusters = append(snap.Learn.Clusters, c.ClusterRecord)
		}
	}
	return snap, nil
}
