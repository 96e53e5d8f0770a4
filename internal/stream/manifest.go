package stream

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"github.com/uei-db/uei/internal/shard"
)

const (
	// CurrentFile is the live layout's commit pointer: it names the
	// manifest file of the newest committed epoch and is replaced
	// atomically (tmp + rename) on every flush/compaction commit —
	// the role shards.json's presence plays for static sharded stores.
	CurrentFile = "CURRENT"
	// walDir holds the write-ahead log files.
	walDir = "wal"

	manifestFormatVersion = 1
)

// ManifestFileName returns the manifest file name of an epoch.
func ManifestFileName(epoch uint64) string { return fmt.Sprintf("manifest-%06d.json", epoch) }

// SegmentDirName returns the directory name of segment id.
func SegmentDirName(id int) string { return fmt.Sprintf("seg-%06d", id) }

// SegmentMeta describes one immutable flushed segment: a self-contained
// flat chunk store plus CRC'd idmap under SegmentDirName(ID).
type SegmentMeta struct {
	// ID is globally unique and never reused (monotonic NextSegmentID).
	ID int `json:"id"`
	// Shard is the owning shard in [0, Shards); always 0 for flat layouts.
	Shard int `json:"shard"`
	// Rows is the segment's row count (zero-row segments are legal: the
	// initial sharded build writes one per rowless shard).
	Rows int `json:"rows"`
	// Bytes is the on-disk chunk payload, for compaction ordering and
	// inspection.
	Bytes int64 `json:"bytes"`
}

// Manifest is one immutable epoch of the live store: the fixed grid
// geometry plus the exact segment set a snapshot of this epoch reads.
// Commits write a whole new manifest file and swing CURRENT — copy on
// write, so a pinned older epoch keeps reading its own file's segment set.
type Manifest struct {
	FormatVersion int `json:"format_version"`
	// Epoch increases by one per commit; snapshots pin it.
	Epoch uint64 `json:"epoch"`
	// Shards is S (1 = flat layout). Fixed at creation.
	Shards int `json:"shards"`
	// SegmentsPerDim fixes the grid; live layouts never regrow it, so
	// cell geometry and cell→shard ownership are epoch-invariant.
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
	// in the WAL but not yet visible to snapshots. WAL replay skips
	// records below it.
	FlushedRows int           `json:"flushed_rows"`
	Segments    []SegmentMeta `json:"segments"`
}

// checkGeometry runs the layout check the static sharded manifest shares.
func (m *Manifest) checkGeometry() error {
	if err := shard.CheckGeometry(m.Shards, m.SegmentsPerDim, m.Columns, m.MinValues, m.MaxValues); err != nil {
		return fmt.Errorf("stream: %w", err)
	}
	return nil
}

func (m *Manifest) validate() error {
	if m.FormatVersion != manifestFormatVersion {
		return fmt.Errorf("stream: manifest format %d, want %d", m.FormatVersion, manifestFormatVersion)
	}
	if m.Epoch == 0 {
		return fmt.Errorf("stream: manifest epoch 0 (epochs start at 1)")
	}
	if err := m.checkGeometry(); err != nil {
		return err
	}
	total := 0
	seen := make(map[int]bool, len(m.Segments))
	for _, s := range m.Segments {
		if s.Rows < 0 {
			return fmt.Errorf("stream: segment %d has negative row count", s.ID)
		}
		if s.Shard < 0 || s.Shard >= m.Shards {
			return fmt.Errorf("stream: segment %d claims shard %d of %d", s.ID, s.Shard, m.Shards)
		}
		if s.ID >= m.NextSegmentID {
			return fmt.Errorf("stream: segment id %d not below next id %d", s.ID, m.NextSegmentID)
		}
		if seen[s.ID] {
			return fmt.Errorf("stream: segment id %d appears twice", s.ID)
		}
		seen[s.ID] = true
		total += s.Rows
	}
	if total != m.FlushedRows {
		return fmt.Errorf("stream: segments hold %d rows, manifest says %d flushed", total, m.FlushedRows)
	}
	return nil
}

// clone deep-copies the manifest so a commit can mutate its working copy
// while pinned snapshots keep reading the old one.
func (m *Manifest) clone() *Manifest {
	c := *m
	c.Columns = append([]string(nil), m.Columns...)
	c.MinValues = append([]float64(nil), m.MinValues...)
	c.MaxValues = append([]float64(nil), m.MaxValues...)
	c.Segments = append([]SegmentMeta(nil), m.Segments...)
	return &c
}

// ReadManifest reads the current committed manifest without opening the
// store — for layout validation (shard count, grid resolution) before
// paying a full Open, and for offline inspection.
func ReadManifest(dir string) (*Manifest, error) {
	return loadCurrentManifest(dir)
}

// IsLiveDir reports whether dir carries the live (stream) layout.
func IsLiveDir(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, CurrentFile))
	return err == nil
}

// commitManifest durably writes the manifest for its epoch and swings
// CURRENT to it. The CURRENT rename is the commit point: a crash before
// it leaves the previous epoch current and the new manifest/segments as
// removable orphans.
func commitManifest(dir string, m *Manifest) error {
	if err := m.validate(); err != nil {
		return err
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("stream: marshal manifest: %w", err)
	}
	name := ManifestFileName(m.Epoch)
	path := filepath.Join(dir, name)
	if err := writeFileSync(path, data); err != nil {
		return err
	}
	if err := writeFileSync(filepath.Join(dir, CurrentFile+".tmp"), []byte(name+"\n")); err != nil {
		return err
	}
	if err := os.Rename(filepath.Join(dir, CurrentFile+".tmp"), filepath.Join(dir, CurrentFile)); err != nil {
		return fmt.Errorf("stream: commit CURRENT: %w", err)
	}
	return nil
}

// writeFileSync writes data and fsyncs before closing, so the commit
// pointer never names a manifest the filesystem might lose.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("stream: create %s: %w", filepath.Base(path), err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("stream: write %s: %w", filepath.Base(path), err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("stream: sync %s: %w", filepath.Base(path), err)
	}
	return f.Close()
}

// loadCurrentManifest reads CURRENT and the manifest it names.
func loadCurrentManifest(dir string) (*Manifest, error) {
	cur, err := os.ReadFile(filepath.Join(dir, CurrentFile))
	if err != nil {
		return nil, fmt.Errorf("stream: read CURRENT: %w", err)
	}
	name := strings.TrimSpace(string(cur))
	if name == "" || strings.ContainsAny(name, "/\\") {
		return nil, fmt.Errorf("stream: CURRENT names %q", name)
	}
	data, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		return nil, fmt.Errorf("stream: read %s: %w", name, err)
	}
	m, err := parseManifest(data)
	if err != nil {
		return nil, err
	}
	if ManifestFileName(m.Epoch) != name {
		return nil, fmt.Errorf("stream: %s records epoch %d", name, m.Epoch)
	}
	return m, nil
}

// parseManifest decodes and validates the bytes of an epoch manifest.
func parseManifest(data []byte) (*Manifest, error) {
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("stream: parse manifest: %w", err)
	}
	if err := m.validate(); err != nil {
		return nil, err
	}
	return &m, nil
}
