package shard

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// goodManifest is a valid two-shard epoch for the parser tests.
func goodManifest() Manifest {
	return Manifest{
		FormatVersion:    manifestFormatVersion,
		Epoch:            1,
		Shards:           2,
		SegmentsPerDim:   5,
		Columns:          []string{"a", "b"},
		MinValues:        []float64{0, -1},
		MaxValues:        []float64{1, 2},
		TargetChunkBytes: 4096,
		NextSegmentID:    3,
		FlushedRows:      3,
		Segments:         []SegmentMeta{{ID: 1, Shard: 0, Rows: 1, Bytes: 100}, {ID: 2, Shard: 1, Rows: 2, Bytes: 200}},
	}
}

// manifestRefusal is an epoch manifest the reader must refuse, with a word
// its error must name.
type manifestRefusal struct {
	name, want string
	data       []byte
}

// manifestRefusals are the files testdata/fuzz/FuzzReadLiveManifest holds:
// epochs valid but for their geometry.
func manifestRefusals(t testing.TB) []manifestRefusal {
	edit := func(f func(m *Manifest)) []byte {
		m := goodManifest()
		f(&m)
		data, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	return []manifestRefusal{
		{"shards-past-max", "want 1..1024", edit(func(m *Manifest) { m.Shards = 1 << 40 })},
		{"duplicate-column", "duplicate column", edit(func(m *Manifest) { m.Columns[1] = "a" })},
		{"empty-column", "empty column", edit(func(m *Manifest) { m.Columns[0] = "" })},
		{"bound-missing", "bounds disagree", edit(func(m *Manifest) { m.MinValues = m.MinValues[:1] })},
	}
}

// TestReadManifestRefusesBadGeometry: every epoch goes through the
// geometry check. A shard count past MaxShards used to be read, and a
// flush then allocated per-shard slices of that length; duplicate or empty
// column names failed only a full Open.
func TestReadManifestRefusesBadGeometry(t *testing.T) {
	write := func(data []byte) string {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, ManifestFileName(1)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, CurrentFile), []byte(ManifestFileName(1)+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	good, err := json.Marshal(goodManifest())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReadManifest(write(good)); err != nil {
		t.Fatalf("a valid manifest: %v", err)
	}
	for _, c := range manifestRefusals(t) {
		if _, err := ReadManifest(write(c.data)); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want one naming %q", c.name, err, c.want)
		}
	}
}

// TestLoadManifestRefusesBadGeometry: Open loads a sharded build through
// the same epoch reader, so a build whose manifest fails the geometry
// check is refused at load, naming the fault, before any part is opened.
func TestLoadManifestRefusesBadGeometry(t *testing.T) {
	dir := buildSharded(t, skyDataset(t, 300), 2)
	c, err := Open(context.Background(), dir, OpenOptions{})
	if err != nil {
		t.Fatalf("the build as written: %v", err)
	}
	c.Close()
	name := filepath.Join(dir, ManifestFileName(1))
	for _, c := range manifestRefusals(t) {
		if err := os.WriteFile(name, c.data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(context.Background(), dir, OpenOptions{}); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Open err = %v, want one naming %q", c.name, err, c.want)
		}
	}
}

// FuzzReadLiveManifest feeds JSON bodies to the epoch manifest parser,
// which must return without panicking; a manifest it accepts passes the
// geometry check and survives a write and a re-read unchanged. The
// committed corpus under testdata/fuzz/ holds manifestRefusals; the seeds
// add identity marks.
func FuzzReadLiveManifest(f *testing.F) {
	good, err := json.Marshal(goodManifest())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	// The identity mark on one segment, on every segment (two identity
	// parts: refused) and on none (the good manifest).
	for _, marked := range [][]int{{0}, {1}, {0, 1}} {
		m := goodManifest()
		for _, i := range marked {
			m.Segments[i].Identity = true
		}
		data, err := json.Marshal(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := parseManifest(data)
		if err != nil {
			return
		}
		if err := m.checkGeometry(); err != nil {
			t.Fatalf("accepted a manifest the geometry check refuses: %v", err)
		}
		enc, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		again, err := parseManifest(enc)
		if err != nil || !reflect.DeepEqual(again, m) {
			t.Fatalf("accepted manifest re-reads as %+v, %v; want %+v", again, err, m)
		}
	})
}
