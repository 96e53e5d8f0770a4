package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/uei-db/uei/internal/core"
	"github.com/uei-db/uei/internal/dataset"
	"github.com/uei-db/uei/internal/stream"
)

// TestVerifyEveryLayout: -verify passes on a store from every builder —
// in-memory, external sort, sharded, live (seed segments plus a flushed
// append) — and on each, once one chunk is damaged, fails naming the part,
// the chunk and the field.
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
	dirs["external"] = filepath.Join(root, "external")
	if _, err := buildExternalFromCSV(csv, dirs["external"], 4096, 500); err != nil {
		t.Fatal(err)
	}

	for name, dir := range dirs {
		if err := verifyStore(dir); err != nil {
			t.Errorf("%s: a freshly built store fails -verify: %v", name, err)
		}
		// Damage the last chunk of the layout's last part: one bit of a
		// value, so the sizes still hold and the CRC does not.
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
		// A chunk cut short is the manifest's "bytes".
		if err := os.WriteFile(victim, data[:len(data)-1], 0o644); err != nil {
			t.Fatal(err)
		}
		if err := verifyStore(dir); err == nil || !strings.Contains(err.Error(), filepath.Base(victim)+": bytes") {
			t.Errorf("%s: -verify over a truncated chunk: err = %v", name, err)
		}
	}
}
