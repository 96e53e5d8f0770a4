// Package shard partitions a UEI store into S self-contained shards and
// coordinates work across them: each shard owns the grid cells whose
// hashed coordinates map to it, holds private chunk stores over exactly
// the rows falling in those cells, and answers load/fetch/retrieve
// requests for its slice. The symbolic index itself — the cell centres,
// their scores and their ranking — is coordinator state: compute goes
// where its input lives, centres are manifest-derived metadata, rows are
// shard data. The coordinator's results are exactly those of one store
// over the same rows, and a step degrades gracefully — another cell, the
// resident region — when the owner of the cell it wanted does not answer
// (ROADMAP: horizontal scaling past one store, in the spirit of partial
// adaptive indexing).
//
// The package also owns the one on-disk layout every store has: immutable
// parts under seg-NNNNNN/, an epoch manifest naming them, and CURRENT, the
// commit pointer naming the current epoch. Build writes its first epoch,
// one part per shard (one part for S = 1); the live store (package stream)
// writes the same first epoch plus an empty wal/ directory, and commits
// later epochs as it flushes and compacts.
package shard

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"github.com/uei-db/uei/internal/chunkstore"
	"github.com/uei-db/uei/internal/dataset"
	"github.com/uei-db/uei/internal/grid"
	"github.com/uei-db/uei/internal/vec"
)

// CurrentFile is the layout's commit pointer: it names the manifest file
// of the newest committed epoch and is replaced atomically (tmp + rename)
// on every commit.
const CurrentFile = "CURRENT"

// manifestFormatVersion is bumped on incompatible layout changes.
const manifestFormatVersion = 1

// MaxShards bounds the shard count to something a single coordinator can
// reasonably fan out to.
const MaxShards = 1024

// ManifestFileName returns the manifest file name of an epoch.
func ManifestFileName(epoch uint64) string { return fmt.Sprintf("manifest-%06d.json", epoch) }

// SegmentDirName returns the directory name of segment id.
func SegmentDirName(id int) string { return fmt.Sprintf("seg-%06d", id) }

// SegmentMeta describes one immutable segment: a part (a self-contained
// chunk store plus CRC'd idmap) under SegmentDirName(ID).
type SegmentMeta struct {
	// ID is globally unique and never reused (monotonic NextSegmentID).
	ID int `json:"id"`
	// Shard is the owning shard in [0, Shards); always 0 when S = 1.
	Shard int `json:"shard"`
	// Rows is the segment's row count (zero-row segments are legal: the
	// first epoch writes one per rowless shard).
	Rows int `json:"rows"`
	// Bytes is the on-disk chunk payload, for compaction ordering and
	// inspection.
	Bytes int64 `json:"bytes"`
	// Identity marks a part over the global rows 0..Rows-1: its local ids
	// are the global ids, so it has no idmap file (WriteSegment) and opens
	// with a nil Part.IDMap. Omitted when false.
	Identity bool `json:"identity,omitempty"`
}

// Manifest is one immutable epoch of a store: the fixed grid
// geometry plus the exact segment set a reader of this epoch reads.
// Commits write a whole new manifest file and swing CURRENT — copy on
// write, so a pinned older epoch keeps reading its own file's segment set.
type Manifest struct {
	FormatVersion int `json:"format_version"`
	// Epoch increases by one per commit; snapshots pin it.
	Epoch uint64 `json:"epoch"`
	// Shards is S. Fixed at creation.
	Shards int `json:"shards"`
	// SegmentsPerDim fixes the grid; it never regrows, so cell geometry
	// and cell→shard ownership are epoch-invariant.
	SegmentsPerDim int      `json:"segments_per_dim"`
	Columns        []string `json:"columns"`
	// MinValues/MaxValues pin the grid bounds at creation. Appends
	// outside them are rejected — the price of epoch-invariant geometry.
	MinValues        []float64 `json:"min_values"`
	MaxValues        []float64 `json:"max_values"`
	TargetChunkBytes int       `json:"target_chunk_bytes"`
	// NextSegmentID is the next unused segment id.
	NextSegmentID int `json:"next_segment_id"`
	// FlushedRows is the read-visibility high-water mark: rows with
	// id < FlushedRows rest in segments; rows at or above it are durable
	// in a live store's WAL but not yet visible to snapshots. WAL replay
	// skips records below it.
	FlushedRows int           `json:"flushed_rows"`
	Segments    []SegmentMeta `json:"segments"`
}

// Grid rebuilds the symbolic-point lattice the manifest records: global
// bounds cut into SegmentsPerDim segments per dimension.
func (m *Manifest) Grid() (*grid.Grid, error) {
	return grid.New(vec.NewBox(m.MinValues, m.MaxValues), m.SegmentsPerDim)
}

// checkGeometry checks the layout facts: shards in 1..MaxShards, at least
// one segment per dimension, columns that form a dataset schema (at least
// one, distinct, non-empty), and one lower and one upper bound per column.
func (m *Manifest) checkGeometry() error {
	if m.Shards < 1 || m.Shards > MaxShards {
		return fmt.Errorf("shard: manifest has %d shards, want 1..%d", m.Shards, MaxShards)
	}
	if m.SegmentsPerDim < 1 {
		return fmt.Errorf("shard: manifest has %d segments per dimension", m.SegmentsPerDim)
	}
	if _, err := dataset.NewSchema(m.Columns...); err != nil {
		return fmt.Errorf("shard: manifest columns: %w", err)
	}
	if len(m.MinValues) != len(m.Columns) || len(m.MaxValues) != len(m.Columns) {
		return fmt.Errorf("shard: manifest bounds disagree with %d columns", len(m.Columns))
	}
	return nil
}

func (m *Manifest) validate() error {
	if m.FormatVersion != manifestFormatVersion {
		return fmt.Errorf("shard: manifest format %d, want %d", m.FormatVersion, manifestFormatVersion)
	}
	if m.Epoch == 0 {
		return fmt.Errorf("shard: manifest epoch 0 (epochs start at 1)")
	}
	if err := m.checkGeometry(); err != nil {
		return err
	}
	total, identities := 0, 0
	seen := make(map[int]bool, len(m.Segments))
	for _, s := range m.Segments {
		if s.Rows < 0 {
			return fmt.Errorf("shard: segment %d has negative row count", s.ID)
		}
		if s.Shard < 0 || s.Shard >= m.Shards {
			return fmt.Errorf("shard: segment %d claims shard %d of %d", s.ID, s.Shard, m.Shards)
		}
		if s.ID >= m.NextSegmentID {
			return fmt.Errorf("shard: segment id %d not below next id %d", s.ID, m.NextSegmentID)
		}
		if seen[s.ID] {
			return fmt.Errorf("shard: segment id %d appears twice", s.ID)
		}
		seen[s.ID] = true
		total += s.Rows
		if s.Identity {
			identities++
		}
	}
	if identities > 1 {
		return fmt.Errorf("shard: %d identity segments (each would hold row 0)", identities)
	}
	if total != m.FlushedRows {
		return fmt.Errorf("shard: segments hold %d rows, manifest says %d flushed", total, m.FlushedRows)
	}
	return nil
}

// Clone deep-copies the manifest so a commit can mutate its working copy
// while pinned snapshots keep reading the old one.
func (m *Manifest) Clone() *Manifest {
	c := *m
	c.Columns = append([]string(nil), m.Columns...)
	c.MinValues = append([]float64(nil), m.MinValues...)
	c.MaxValues = append([]float64(nil), m.MaxValues...)
	c.Segments = append([]SegmentMeta(nil), m.Segments...)
	return &c
}

// CommitManifest durably writes the manifest for its epoch and swings
// CURRENT to it. The CURRENT rename is the commit point: a crash before
// it leaves the previous epoch current (or, for a first epoch, no store)
// and the new manifest and segments as removable orphans.
func CommitManifest(dir string, m *Manifest) error {
	if err := m.validate(); err != nil {
		return err
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("shard: marshal manifest: %w", err)
	}
	name := ManifestFileName(m.Epoch)
	if err := writeFileSync(filepath.Join(dir, name), data); err != nil {
		return err
	}
	tmp := filepath.Join(dir, CurrentFile+".tmp")
	if err := writeFileSync(tmp, []byte(name+"\n")); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, CurrentFile)); err != nil {
		return fmt.Errorf("shard: commit CURRENT: %w", err)
	}
	return nil
}

// writeFileSync writes data and fsyncs before closing, so the commit
// pointer never names a manifest the filesystem might lose.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("shard: create %s: %w", filepath.Base(path), err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("shard: write %s: %w", filepath.Base(path), err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("shard: sync %s: %w", filepath.Base(path), err)
	}
	return f.Close()
}

// ReadManifest reads CURRENT and the manifest it names, without opening
// any part. A directory of a retired layout — a flat store (a top-level
// manifest.json) or a static sharded store (shards.json) — fails with
// chunkstore.ErrFormatVersion, naming the rebuild.
func ReadManifest(dir string) (*Manifest, error) {
	for _, retired := range []string{"manifest.json", "shards.json"} {
		if _, err := os.Stat(filepath.Join(dir, retired)); err == nil {
			return nil, fmt.Errorf("shard: %s holds a store of a retired layout (%s), which this program no longer reads (rebuild the store with uei-ingest): %w", dir, retired, chunkstore.ErrFormatVersion)
		}
	}
	cur, err := os.ReadFile(filepath.Join(dir, CurrentFile))
	if err != nil {
		return nil, fmt.Errorf("shard: read CURRENT: %w", err)
	}
	name := strings.TrimSpace(string(cur))
	if name == "" || strings.ContainsAny(name, "/\\") {
		return nil, fmt.Errorf("shard: CURRENT names %q", name)
	}
	data, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		return nil, fmt.Errorf("shard: read %s: %w", name, err)
	}
	m, err := parseManifest(data)
	if err != nil {
		return nil, err
	}
	if ManifestFileName(m.Epoch) != name {
		return nil, fmt.Errorf("shard: %s records epoch %d", name, m.Epoch)
	}
	return m, nil
}

// parseManifest decodes and validates the bytes of an epoch manifest.
func parseManifest(data []byte) (*Manifest, error) {
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("shard: parse manifest: %w", err)
	}
	if err := m.validate(); err != nil {
		return nil, err
	}
	return &m, nil
}
