package ide

import (
	"encoding/json"
	"fmt"
	"io"

	"github.com/uei-db/uei/internal/learn"
)

// Snapshot captures a session's labeled set so an exploration can be
// paused and resumed later (or moved between storage schemes — the labeled
// set is scheme-independent). The predictive model is not serialized; it
// is a deterministic function of the labeled set and is refitted on
// resume.
type Snapshot struct {
	// FormatVersion guards against decoding snapshots from other
	// versions.
	FormatVersion int `json:"format_version"`
	// IDs are the labeled tuple ids, in labeling order.
	IDs []uint32 `json:"ids"`
	// X are the labeled feature vectors, aligned with IDs.
	X [][]float64 `json:"x"`
	// Y are the binary labels, aligned with IDs.
	Y []int `json:"y"`
}

// snapshotFormatVersion is bumped on incompatible layout changes.
const snapshotFormatVersion = 1

// Snapshot returns a copy of the session's current labeled set.
func (s *Session) Snapshot() Snapshot {
	snap := Snapshot{
		FormatVersion: snapshotFormatVersion,
		IDs:           append([]uint32(nil), s.labeledIDs...),
		Y:             append([]int(nil), s.labeledY...),
		X:             make([][]float64, len(s.labeledX)),
	}
	for i, row := range s.labeledX {
		snap.X[i] = append([]float64(nil), row...)
	}
	return snap
}

// validate checks a snapshot's internal consistency.
func (snap Snapshot) validate() error {
	if snap.FormatVersion != snapshotFormatVersion {
		return fmt.Errorf("ide: snapshot format %d, want %d", snap.FormatVersion, snapshotFormatVersion)
	}
	if len(snap.IDs) != len(snap.X) || len(snap.IDs) != len(snap.Y) {
		return fmt.Errorf("ide: snapshot arrays disagree: %d ids, %d rows, %d labels", len(snap.IDs), len(snap.X), len(snap.Y))
	}
	if len(snap.IDs) == 0 {
		return fmt.Errorf("ide: empty snapshot")
	}
	dims := len(snap.X[0])
	for i, row := range snap.X {
		if len(row) != dims {
			return fmt.Errorf("ide: snapshot row %d has %d dims, row 0 has %d", i, len(row), dims)
		}
	}
	for i, y := range snap.Y {
		if y != learn.ClassNegative && y != learn.ClassPositive {
			return fmt.Errorf("ide: snapshot label %d of row %d is not binary", y, i)
		}
	}
	return nil
}

// Save serializes the snapshot as JSON.
func (snap Snapshot) Save(w io.Writer) error {
	if err := snap.validate(); err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(snap); err != nil {
		return fmt.Errorf("ide: encode snapshot: %w", err)
	}
	return nil
}

// ReadSnapshot parses a snapshot written by Save: the whole of r, one JSON
// value.
func ReadSnapshot(r io.Reader) (Snapshot, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return Snapshot{}, fmt.Errorf("ide: read snapshot: %w", err)
	}
	return parseSnapshot(data)
}

// parseSnapshot decodes and validates the bytes of a snapshot file.
func parseSnapshot(data []byte) (Snapshot, error) {
	var snap Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return Snapshot{}, fmt.Errorf("ide: decode snapshot: %w", err)
	}
	if err := snap.validate(); err != nil {
		return Snapshot{}, err
	}
	return snap, nil
}

// NewSessionFromSnapshot resumes an exploration: the snapshot's labeled set
// is installed (and reported to the provider so those tuples leave the
// unlabeled pool), and Run continues the interactive loop from there —
// skipping initial-example acquisition when the snapshot already holds
// both classes.
func NewSessionFromSnapshot(cfg Config, provider Provider, labeler Labeler, snap Snapshot) (*Session, error) {
	if err := snap.validate(); err != nil {
		return nil, err
	}
	sess, err := NewSession(cfg, provider, labeler)
	if err != nil {
		return nil, err
	}
	sess.labeledIDs = append([]uint32(nil), snap.IDs...)
	sess.labeledY = append([]int(nil), snap.Y...)
	sess.labeledX = make([][]float64, len(snap.X))
	for i, row := range snap.X {
		sess.labeledX[i] = append([]float64(nil), row...)
	}
	sess.resumed = true
	return sess, nil
}
