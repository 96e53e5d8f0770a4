package shard

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// goodManifest is a valid two-shard manifest for the parser tests.
func goodManifest() Manifest {
	return Manifest{
		FormatVersion:    manifestFormatVersion,
		Shards:           2,
		SegmentsPerDim:   5,
		Hash:             hashName,
		Columns:          []string{"a", "b"},
		RowCount:         3,
		MinValues:        []float64{0, -1},
		MaxValues:        []float64{1, 2},
		TargetChunkBytes: 4096,
		ShardRowCounts:   []int{1, 2},
	}
}

// manifestRefusal is a shards.json the loader must refuse, with a word its
// error must name.
type manifestRefusal struct {
	name, want string
	data       []byte
}

// manifestRefusals are the files testdata/fuzz/FuzzLoadShardManifest
// holds: manifests valid but for their geometry.
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
		{"duplicate-column", "duplicate column", edit(func(m *Manifest) { m.Columns[1] = "a" })},
		{"empty-column", "empty column", edit(func(m *Manifest) { m.Columns[0] = "" })},
		{"shards-past-max", "want 1..1024", edit(func(m *Manifest) { m.Shards = 1 << 40 })},
		{"bound-missing", "bounds disagree", edit(func(m *Manifest) { m.MaxValues = m.MaxValues[:1] })},
	}
}

// TestLoadManifestRefusesBadGeometry: shards.json goes through the
// geometry check the live manifest shares, so duplicate or empty column
// names — which no schema can hold — fail the load, not a later open.
func TestLoadManifestRefusesBadGeometry(t *testing.T) {
	write := func(data []byte) string {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, ManifestFile), data, 0o644); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	good, err := json.Marshal(goodManifest())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LoadManifest(write(good)); err != nil {
		t.Fatalf("a valid manifest: %v", err)
	}
	for _, c := range manifestRefusals(t) {
		if _, err := LoadManifest(write(c.data)); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want one naming %q", c.name, err, c.want)
		}
	}
}

// FuzzLoadShardManifest feeds JSON bodies to the shards.json parser, which
// must return without panicking; a manifest it accepts passes the geometry
// check and survives a write and a re-read unchanged. The committed corpus
// under testdata/fuzz/ holds manifestRefusals.
func FuzzLoadShardManifest(f *testing.F) {
	good, err := json.Marshal(goodManifest())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := parseManifest(data)
		if err != nil {
			return
		}
		if err := CheckGeometry(m.Shards, m.SegmentsPerDim, m.Columns, m.MinValues, m.MaxValues); err != nil {
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
