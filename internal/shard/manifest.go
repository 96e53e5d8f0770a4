// Package shard partitions a UEI store into S self-contained shards and
// coordinates work across them: each shard owns the grid cells whose
// hashed coordinates map to it, holds a private chunk store over exactly
// the rows falling in those cells, and answers load/fetch/retrieve
// requests for its slice. The symbolic index itself — the cell centres,
// their scores and their ranking — is coordinator state: compute goes
// where its input lives, centres are manifest-derived metadata, rows are
// shard data. The coordinator's results are exactly those of one store
// over the same rows, and a step degrades gracefully — another cell, the
// resident region — when the owner of the cell it wanted does not answer
// (ROADMAP: horizontal scaling past one store, in the spirit of partial
// adaptive indexing).
package shard

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"github.com/uei-db/uei/internal/chunkstore"
	"github.com/uei-db/uei/internal/dataset"
	"github.com/uei-db/uei/internal/grid"
	"github.com/uei-db/uei/internal/vec"
)

// ManifestFile is the top-level manifest name of a sharded store
// directory. The constant lives in chunkstore so flat opens can detect the
// sharded layout without importing this package.
const ManifestFile = chunkstore.ShardManifestFile

// manifestFormatVersion is bumped on incompatible sharded-layout changes.
const manifestFormatVersion = 1

// hashName identifies the cell→shard assignment function recorded at
// build time; Open refuses manifests built with a different assignment
// (ownership would silently disagree between ingest and serving).
const hashName = "fnv1a-cell-coords/v1"

// MaxShards bounds the shard count to something a single coordinator can
// reasonably fan out to.
const MaxShards = 1024

// Manifest is the sharded store's persistent top-level metadata. The
// global dataset facts (bounds, columns, row count) are recorded here so
// the coordinator rebuilds the exact grid the flat layout would use,
// independent of any one shard's local value range.
type Manifest struct {
	FormatVersion int `json:"format_version"`
	// Shards is S, the number of shard subdirectories.
	Shards int `json:"shards"`
	// SegmentsPerDim fixes the grid the cell→shard hash was computed
	// over; opening with a different grid would scramble ownership.
	SegmentsPerDim int `json:"segments_per_dim"`
	// Hash names the cell→shard assignment function (hashName).
	Hash string `json:"hash"`
	// Columns are the attribute names, in dimension order.
	Columns []string `json:"columns"`
	// RowCount is the number of tuples across all shards.
	RowCount int `json:"row_count"`
	// MinValues/MaxValues bound each dimension over the whole dataset —
	// identical to what a flat build of the same dataset records.
	MinValues []float64 `json:"min_values"`
	MaxValues []float64 `json:"max_values"`
	// TargetChunkBytes is the per-shard chunk size target used at build.
	TargetChunkBytes int `json:"target_chunk_bytes"`
	// ShardRowCounts[i] is shard i's row count (consistency check at open).
	ShardRowCounts []int `json:"shard_row_counts"`
}

// NewManifest assembles and validates a manifest from the store facts.
// Live (stream) snapshots use it to synthesize the commit point a
// build-time layout would have written as shards.json, so the same
// coordinator serves both.
func NewManifest(shards, segmentsPerDim int, columns []string, minValues, maxValues []float64, targetChunkBytes int, shardRowCounts []int) (*Manifest, error) {
	total := 0
	for _, n := range shardRowCounts {
		total += n
	}
	m := &Manifest{
		FormatVersion:    manifestFormatVersion,
		Shards:           shards,
		SegmentsPerDim:   segmentsPerDim,
		Hash:             hashName,
		Columns:          append([]string(nil), columns...),
		RowCount:         total,
		MinValues:        append([]float64(nil), minValues...),
		MaxValues:        append([]float64(nil), maxValues...),
		TargetChunkBytes: targetChunkBytes,
		ShardRowCounts:   append([]int(nil), shardRowCounts...),
	}
	if err := m.validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// ShardDirName returns the subdirectory name of shard i.
func ShardDirName(i int) string { return fmt.Sprintf("shard-%03d", i) }

// IsShardedDir reports whether dir carries a sharded store layout
// (shards.json present).
func IsShardedDir(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, ManifestFile))
	return err == nil
}

// Grid rebuilds the symbolic-point lattice the manifest records: global
// bounds cut into SegmentsPerDim segments per dimension.
func (m *Manifest) Grid() (*grid.Grid, error) {
	return grid.New(vec.NewBox(m.MinValues, m.MaxValues), m.SegmentsPerDim)
}

// CheckGeometry is the one check of the layout facts both multi-part
// manifests record — shards.json here, every live epoch in stream: shards
// in 1..MaxShards, at least one segment per dimension, columns that form a
// dataset schema (at least one, distinct, non-empty), and one lower and
// one upper bound per column.
func CheckGeometry(shards, segmentsPerDim int, columns []string, minValues, maxValues []float64) error {
	if shards < 1 || shards > MaxShards {
		return fmt.Errorf("shard: manifest has %d shards, want 1..%d", shards, MaxShards)
	}
	if segmentsPerDim < 1 {
		return fmt.Errorf("shard: manifest has %d segments per dimension", segmentsPerDim)
	}
	if _, err := dataset.NewSchema(columns...); err != nil {
		return fmt.Errorf("shard: manifest columns: %w", err)
	}
	if len(minValues) != len(columns) || len(maxValues) != len(columns) {
		return fmt.Errorf("shard: manifest bounds disagree with %d columns", len(columns))
	}
	return nil
}

func (m *Manifest) validate() error {
	if m.FormatVersion != manifestFormatVersion {
		return fmt.Errorf("shard: manifest format %d, want %d", m.FormatVersion, manifestFormatVersion)
	}
	if m.Hash != hashName {
		return fmt.Errorf("shard: manifest uses assignment %q, this build understands %q", m.Hash, hashName)
	}
	if err := CheckGeometry(m.Shards, m.SegmentsPerDim, m.Columns, m.MinValues, m.MaxValues); err != nil {
		return err
	}
	if len(m.ShardRowCounts) != m.Shards {
		return fmt.Errorf("shard: %d shard row counts for %d shards", len(m.ShardRowCounts), m.Shards)
	}
	total := 0
	for i, n := range m.ShardRowCounts {
		if n < 0 {
			return fmt.Errorf("shard: shard %d has negative row count", i)
		}
		total += n
	}
	if total != m.RowCount {
		return fmt.Errorf("shard: shard row counts sum to %d, manifest says %d", total, m.RowCount)
	}
	return nil
}

// saveManifest writes the top-level manifest atomically. It is written
// last during Build, so its presence marks a complete sharded store.
func saveManifest(dir string, m *Manifest) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("shard: marshal manifest: %w", err)
	}
	tmp := filepath.Join(dir, ManifestFile+".tmp")
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("shard: write manifest: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, ManifestFile)); err != nil {
		return fmt.Errorf("shard: commit manifest: %w", err)
	}
	return nil
}

// LoadManifest reads and validates the top-level shard manifest. A
// directory holding a flat store instead fails with
// chunkstore.ErrLayoutMismatch.
func LoadManifest(dir string) (*Manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, ManifestFile))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			if _, serr := os.Stat(filepath.Join(dir, "manifest.json")); serr == nil {
				return nil, fmt.Errorf("shard: %s holds a flat store (manifest.json present): %w", dir, chunkstore.ErrLayoutMismatch)
			}
		}
		return nil, fmt.Errorf("shard: read manifest: %w", err)
	}
	return parseManifest(data)
}

// parseManifest decodes and validates the bytes of a shard manifest.
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
