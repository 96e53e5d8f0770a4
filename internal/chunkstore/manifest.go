package chunkstore

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
)

// manifestFile is the name of the store's metadata file inside its
// directory.
const manifestFile = "manifest.json"

// ChunkMeta describes one chunk without reading it: its extent in its
// dimension's data file and what it holds. The grid mapping m works
// entirely on ChunkMeta value ranges.
type ChunkMeta struct {
	// File is the chunk's name, d<dim>_c<seq>, unique within its store: it
	// names the chunk in errors and keys it in the block cache. Offset is
	// where the chunk starts in its dimension's data file, the Bytes of the
	// chunks before it summed. The loader derives both; the manifest stores
	// neither, so no manifest can name a path or describe extents that
	// overlap or leave gaps.
	File   string `json:"-"`
	Offset int64  `json:"-"`
	// Dim is the dimension the chunk belongs to.
	Dim int `json:"dim"`
	// Seq is the chunk's position in its dimension's ordered sequence.
	Seq int `json:"seq"`
	// Entries is the number of postings in the chunk.
	Entries int `json:"entries"`
	// RowRefs is the total number of row ids across the chunk's postings;
	// it measures e, the per-iteration work term of the paper's O(k·e)
	// complexity bound.
	RowRefs int `json:"row_refs"`
	// MinValue and MaxValue bound the values stored in the chunk
	// (inclusive).
	MinValue float64 `json:"min_value"`
	MaxValue float64 `json:"max_value"`
	// Bytes is the chunk's encoded size: its extent's length.
	Bytes int64 `json:"bytes"`
}

// Manifest is the store's persistent metadata.
type Manifest struct {
	// FormatVersion guards against reading manifests from other versions.
	FormatVersion int `json:"format_version"`
	// Columns are the attribute names, in dimension order.
	Columns []string `json:"columns"`
	// RowCount is the number of tuples in the store.
	RowCount int `json:"row_count"`
	// TargetChunkBytes is the equal-size chunk target used at build time.
	TargetChunkBytes int `json:"target_chunk_bytes"`
	// Chunks lists every chunk of every dimension; Chunks[d] is ordered by
	// ascending value range (Seq).
	Chunks [][]ChunkMeta `json:"chunks"`
	// MinValues/MaxValues bound each dimension over the whole dataset.
	MinValues []float64 `json:"min_values"`
	MaxValues []float64 `json:"max_values"`
}

// manifestFormatVersion is bumped on incompatible layout changes. Format 2
// is the first whose chunks are chunk version 2, format 3 the first that
// keeps each dimension's chunks back to back in one data file, format 4
// the first whose chunks (version 3) and part idmaps (version 2) store
// what ascends as gaps.
const manifestFormatVersion = 4

// ErrFormatVersion reports a store written in a format this program does
// not read; the remedy is to rebuild it. Match with errors.Is.
var ErrFormatVersion = errors.New("unsupported store format")

// chunkName is the name the loader gives chunk seq of dimension dim.
func chunkName(dim, seq int) string { return fmt.Sprintf("d%02d_c%05d", dim, seq) }

// dataFileName is the file holding dimension dim's chunks.
func dataFileName(dim int) string { return fmt.Sprintf("d%02d.chk", dim) }

// validate checks internal consistency and derives every chunk's File and
// Offset. Build runs it too, before it saves the manifest.
func (m *Manifest) validate() error {
	if m.FormatVersion != manifestFormatVersion {
		return fmt.Errorf("chunkstore: manifest format %d, want %d (rebuild the store with uei-ingest): %w", m.FormatVersion, manifestFormatVersion, ErrFormatVersion)
	}
	dims := len(m.Columns)
	if dims == 0 {
		return fmt.Errorf("chunkstore: manifest has no columns")
	}
	if len(m.Chunks) != dims || len(m.MinValues) != dims || len(m.MaxValues) != dims {
		return fmt.Errorf("chunkstore: manifest arrays disagree with %d columns", dims)
	}
	if m.RowCount < 0 {
		return fmt.Errorf("chunkstore: negative row count %d", m.RowCount)
	}
	for d, chunks := range m.Chunks {
		if m.RowCount > 0 && len(chunks) == 0 {
			return fmt.Errorf("chunkstore: dimension %d has no chunks", d)
		}
		var off int64
		for i := range chunks {
			c := &chunks[i]
			c.File, c.Offset = chunkName(d, i), off
			if c.Dim != d || c.Seq != i {
				return fmt.Errorf("chunkstore: chunk %s misfiled (dim %d seq %d)", c.File, c.Dim, c.Seq)
			}
			if c.Entries < 1 || c.RowRefs < c.Entries {
				return fmt.Errorf("chunkstore: chunk %s has an impossible count (entries %d, row refs %d)", c.File, c.Entries, c.RowRefs)
			}
			if c.Bytes < headerSize+4+minEntrySize {
				return fmt.Errorf("chunkstore: chunk %s is %d bytes, below the %d of a header, a checksum and one entry", c.File, c.Bytes, headerSize+4+minEntrySize)
			}
			if c.Bytes > math.MaxInt64-off {
				return fmt.Errorf("chunkstore: chunk %s ends past the largest file offset", c.File)
			}
			off += c.Bytes
			if c.MinValue > c.MaxValue {
				return fmt.Errorf("chunkstore: chunk %s has inverted range", c.File)
			}
			if i > 0 && chunks[i-1].MaxValue >= c.MinValue {
				return fmt.Errorf("chunkstore: dimension %d chunks %d and %d overlap in value", d, i-1, i)
			}
		}
	}
	return nil
}

// saveManifest writes the manifest atomically (write temp + rename) so a
// crash mid-save never leaves a half-written manifest behind.
func saveManifest(dir string, m *Manifest) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("chunkstore: marshal manifest: %w", err)
	}
	tmp := filepath.Join(dir, manifestFile+".tmp")
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("chunkstore: write manifest: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, manifestFile)); err != nil {
		return fmt.Errorf("chunkstore: commit manifest: %w", err)
	}
	return nil
}

// loadManifest reads and validates the manifest in dir.
func loadManifest(dir string) (*Manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, manifestFile))
	if err != nil {
		return nil, fmt.Errorf("chunkstore: read manifest: %w", err)
	}
	return parseManifest(data)
}

// parseManifest decodes and validates a manifest's JSON.
func parseManifest(data []byte) (*Manifest, error) {
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("chunkstore: parse manifest: %w", err)
	}
	if err := m.validate(); err != nil {
		return nil, err
	}
	return &m, nil
}
