package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/uei-db/uei/internal/core"
	"github.com/uei-db/uei/internal/dataset"
	"github.com/uei-db/uei/internal/shard"
	"github.com/uei-db/uei/internal/stream"
)

// TestVerifyEveryLayout: -verify passes on a store of every layout — flat
// from a dataset and from a streamed -csv file, sharded, live (seed
// segments plus a flushed append) — and on each, once one chunk is
// damaged, fails naming the part, the chunk and the field; on a sharded
// and a live store it also fails over a damaged idmap, over a CRC-valid
// idmap naming a row past the layout, and over a manifest row count its
// part does not hold.
func TestVerifyEveryLayout(t *testing.T) {
	ds, err := dataset.GenerateSky(dataset.SkyConfig{N: 4000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	root := t.TempDir()
	dirs := map[string]string{}
	for name, opts := range map[string]core.BuildOptions{
		"flat":    {TargetChunkBytes: 4096},
		"sharded": {TargetChunkBytes: 4096, Shards: 3},
		"live":    {TargetChunkBytes: 4096, Shards: 2, LiveIngest: true},
	} {
		dirs[name] = filepath.Join(root, name)
		if err := core.Build(dirs[name], ds, opts); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	db, err := stream.Open(dirs["live"], stream.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Append([][]float64{ds.CopyRow(1), ds.CopyRow(2), ds.CopyRow(3)}); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	csv := filepath.Join(root, "rows.csv")
	if err := dataset.WriteCSVFile(csv, ds); err != nil {
		t.Fatal(err)
	}
	dirs["csv"] = filepath.Join(root, "csv")
	if err := buildFromCSV(csv, dirs["csv"], 4096); err != nil {
		t.Fatal(err)
	}

	for name, dir := range dirs {
		if err := verifyStore(dir); err != nil {
			t.Errorf("%s: a freshly built store fails -verify: %v", name, err)
		}
		// Damage the first chunk of the last data file of the layout's last
		// part: one bit of a value, so the sizes still hold and the CRC
		// does not.
		chunks, err := filepath.Glob(filepath.Join(dir, "*.chk"))
		if err != nil {
			t.Fatal(err)
		}
		if more, _ := filepath.Glob(filepath.Join(dir, "*", "*.chk")); len(more) > 0 {
			chunks = more
		}
		victim := chunks[len(chunks)-1]
		data, err := os.ReadFile(victim)
		if err != nil {
			t.Fatal(err)
		}
		data[40] ^= 1
		if err := os.WriteFile(victim, data, 0o644); err != nil {
			t.Fatal(err)
		}
		err = verifyStore(dir)
		if err == nil {
			t.Errorf("%s: -verify passes with %s damaged", name, victim)
			continue
		}
		for _, want := range []string{filepath.Dir(victim), filepath.Base(victim), "file", "crc"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: -verify error %q does not name %q", name, err, want)
			}
		}
		// A data file cut short is refused at open, naming it and its size.
		if err := os.WriteFile(victim, data[:len(data)-1], 0o644); err != nil {
			t.Fatal(err)
		}
		if err := verifyStore(dir); err == nil || !strings.Contains(err.Error(), filepath.Base(victim)+fmt.Sprintf(" is %d bytes", len(data)-1)) {
			t.Errorf("%s: -verify over a truncated data file: err = %v", name, err)
		}
	}

	// -verify opens every part as serving does, so what serving refuses
	// beyond the chunks fails it too, naming the part: one flipped idmap
	// byte, an idmap whose last id is the layout's row count, and a
	// manifest row count the part does not hold (the manifest's totals
	// moved with it, so only the part disagrees).
	flipIDMap := func(part string) func(dir string) string {
		return func(dir string) string {
			path := filepath.Join(dir, part, "idmap")
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			data[12] ^= 1
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			return part
		}
	}
	// pastLayout rewrites part's idmap, CRC and all, with its last id
	// moved to the layout's row count: still strictly ascending, one row
	// past the layout.
	pastLayout := func(part string, layoutRows func(dir string) int) func(dir string) string {
		return func(dir string) string {
			ids, err := shard.LoadIDMap(filepath.Join(dir, part))
			if err != nil {
				t.Fatal(err)
			}
			ids[len(ids)-1] = uint32(layoutRows(dir))
			if err := shard.SaveIDMap(filepath.Join(dir, part), ids); err != nil {
				t.Fatal(err)
			}
			return part
		}
	}
	writeJSON := func(path string, v any) {
		data, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	sharded := core.BuildOptions{TargetChunkBytes: 4096, Shards: 3}
	live := core.BuildOptions{TargetChunkBytes: 4096, Shards: 2, LiveIngest: true}
	for _, c := range []struct {
		name   string
		opts   core.BuildOptions
		damage func(dir string) (part string)
		want   string
	}{
		{"sharded idmap", sharded, flipIDMap("shard-001"), "idmap corrupted"},
		{"live idmap", live, flipIDMap("seg-000002"), "idmap corrupted"},
		{"sharded idmap past the store", sharded, pastLayout("shard-001", func(dir string) int {
			m, err := shard.LoadManifest(dir)
			if err != nil {
				t.Fatal(err)
			}
			return m.RowCount
		}), "past the layout"},
		{"live idmap past the store", live, pastLayout("seg-000002", func(dir string) int {
			m, err := stream.ReadManifest(dir)
			if err != nil {
				t.Fatal(err)
			}
			return m.FlushedRows
		}), "past the layout"},
		{"sharded row count", sharded, func(dir string) string {
			m, err := shard.LoadManifest(dir)
			if err != nil {
				t.Fatal(err)
			}
			m.ShardRowCounts[0]++
			m.RowCount++
			writeJSON(filepath.Join(dir, shard.ManifestFile), m)
			return "shard-000"
		}, "manifest says"},
		{"live row count", live, func(dir string) string {
			m, err := stream.ReadManifest(dir)
			if err != nil {
				t.Fatal(err)
			}
			m.Segments[0].Rows++
			m.FlushedRows++
			writeJSON(filepath.Join(dir, stream.ManifestFileName(m.Epoch)), m)
			return "seg-000001"
		}, "manifest says"},
	} {
		dir := filepath.Join(root, strings.ReplaceAll(c.name, " ", "-"))
		if err := core.Build(dir, ds, c.opts); err != nil {
			t.Fatal(err)
		}
		part := filepath.Join(dir, c.damage(dir))
		err := verifyStore(dir)
		if err == nil || !strings.Contains(err.Error(), part) || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: -verify err = %v, want one naming %s and %q", c.name, err, part, c.want)
		}
	}
}
