package main

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/uei-db/uei/internal/al"
	"github.com/uei-db/uei/internal/chunkstore"
	"github.com/uei-db/uei/internal/core"
	"github.com/uei-db/uei/internal/dataset"
	"github.com/uei-db/uei/internal/ide"
	"github.com/uei-db/uei/internal/learn"
	"github.com/uei-db/uei/internal/oracle"
	"github.com/uei-db/uei/internal/shard"
	"github.com/uei-db/uei/internal/stream"
)

// TestVerifyEveryLayout: -verify passes on a store of every layout — one
// shard from a dataset and from a -csv file streamed by core.Build, sharded, live (seed
// segments plus a flushed append) — and on each, once one chunk is
// damaged, fails naming the part, the chunk and the field; on a sharded
// and a live store it also fails over a damaged idmap, over a CRC-valid
// idmap naming a row past the layout, and over a manifest row count its
// part does not hold; on a one-shard store, over a row count and over a
// segment whose identity mark is gone (its idmap is missing); on a live
// store, over a WAL generation with a gap in its row ids.
func TestVerifyEveryLayout(t *testing.T) {
	ds, err := dataset.GenerateSky(dataset.SkyConfig{N: 4000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	root := t.TempDir()
	dirs := map[string]string{}
	for name, opts := range map[string]core.BuildOptions{
		"one shard": {TargetChunkBytes: 4096},
		"sharded":   {TargetChunkBytes: 4096, Shards: 3},
		"live":      {TargetChunkBytes: 4096, Shards: 2, LiveIngest: true},
	} {
		dirs[name] = filepath.Join(root, strings.ReplaceAll(name, " ", "-"))
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
	src, err := dataset.OpenCSVFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.Build(dirs["csv"], src, core.BuildOptions{TargetChunkBytes: 4096}); err != nil {
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
			m, err := shard.ReadManifest(dir)
			if err != nil {
				t.Fatal(err)
			}
			rows := 0
			for _, seg := range m.Segments {
				if shard.SegmentDirName(seg.ID) == part {
					rows = seg.Rows
				}
			}
			ids, err := shard.LoadIDMap(filepath.Join(dir, part), rows)
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
	flushedRows := func(dir string) int {
		m, err := shard.ReadManifest(dir)
		if err != nil {
			t.Fatal(err)
		}
		return m.FlushedRows
	}
	// rewrite applies edit to the manifest CURRENT names, in place, and
	// names the first segment's part.
	rewrite := func(edit func(m *shard.Manifest)) func(dir string) string {
		return func(dir string) string {
			m, err := shard.ReadManifest(dir)
			if err != nil {
				t.Fatal(err)
			}
			edit(m)
			data, err := json.MarshalIndent(m, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, shard.ManifestFileName(m.Epoch)), data, 0o644); err != nil {
				t.Fatal(err)
			}
			return "seg-000001"
		}
	}
	// moreRows records one row more for the first segment and the epoch.
	moreRows := rewrite(func(m *shard.Manifest) { m.Segments[0].Rows++; m.FlushedRows++ })
	unmarked := rewrite(func(m *shard.Manifest) { m.Segments[0].Identity = false })
	oneShard := core.BuildOptions{TargetChunkBytes: 4096}
	sharded := core.BuildOptions{TargetChunkBytes: 4096, Shards: 3}
	live := core.BuildOptions{TargetChunkBytes: 4096, Shards: 2, LiveIngest: true}
	for _, c := range []struct {
		name   string
		opts   core.BuildOptions
		damage func(dir string) (part string)
		want   string
	}{
		{"sharded idmap", sharded, flipIDMap("seg-000002"), "idmap corrupted"},
		{"live idmap", live, flipIDMap("seg-000002"), "idmap corrupted"},
		{"sharded idmap past the store", sharded, pastLayout("seg-000002", flushedRows), "past the layout"},
		{"live idmap past the store", live, pastLayout("seg-000002", flushedRows), "past the layout"},
		{"sharded row count", sharded, moreRows, "manifest says"},
		{"live row count", live, moreRows, "manifest says"},
		{"one-shard row count", oneShard, moreRows, "manifest says"},
		{"one-shard identity mark removed", oneShard, unmarked, "read idmap"},
		{"live wal gap", live, func(dir string) string {
			// Re-seal the one record of a real generation with its first
			// row id moved up by one: CRC-valid, one row past a gap.
			path := filepath.Join(dir, "wal", stream.WALFileName(0))
			db, err := stream.Open(dir, stream.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := db.Append([][]float64{ds.CopyRow(1)}); err != nil {
				t.Fatal(err)
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			binary.LittleEndian.PutUint32(data[8:], binary.LittleEndian.Uint32(data[8:])+1)
			binary.LittleEndian.PutUint32(data[4:], crc32.ChecksumIEEE(data[8:]))
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			return "wal"
		}, "wal 0: row id 4001, expected 4000 (gap in the log)"},
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

// storeFiles reads every file under dir into a map keyed by its path
// relative to dir; a directory maps to nil.
func storeFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	files := make(map[string][]byte)
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || path == dir {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil || d.IsDir() {
			files[rel] = nil
			return err
		}
		files[rel], err = os.ReadFile(path)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestReadersLeaveStaticStoreUnchanged: a sharded build is a static store
// — no wal/ — so core.Open and Close, shard.Open, -inspect and -verify
// read it without writing: every file is byte-unchanged and none is added,
// and opening it live fails with ErrLayoutMismatch.
func TestReadersLeaveStaticStoreUnchanged(t *testing.T) {
	ds, err := dataset.GenerateSky(dataset.SkyConfig{N: 3000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := core.Build(dir, ds, core.BuildOptions{TargetChunkBytes: 4096, Shards: 3}); err != nil {
		t.Fatal(err)
	}
	before := storeFiles(t, dir)
	ctx := context.Background()
	idx, err := core.Open(ctx, dir, core.Options{MemoryBudgetBytes: ds.SizeBytes()})
	if err != nil {
		t.Fatal(err)
	}
	idx.Close()
	if _, err := core.Open(ctx, dir, core.Options{MemoryBudgetBytes: ds.SizeBytes(), LiveIngest: true}); !errors.Is(err, chunkstore.ErrLayoutMismatch) {
		t.Fatalf("core.Open with LiveIngest on a static store: err = %v, want ErrLayoutMismatch", err)
	}
	c, err := shard.Open(ctx, dir, shard.OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	if err := inspectStore(dir); err != nil {
		t.Fatal(err)
	}
	if err := verifyStore(dir); err != nil {
		t.Fatal(err)
	}
	if after := storeFiles(t, dir); !reflect.DeepEqual(after, before) {
		t.Fatal("reading a static store changed its files")
	}
}

// TestConstantColumnStore: a CSV whose second column holds one value
// builds, at one shard and at two, into a store that passes -verify, whose
// -inspect reports no straddling chunk, and that opens with default options
// (but for a memory budget) and serves an oracle session to its end: every layer builds its grid
// through grid.New, which gives the zero-width dimension one segment.
func TestConstantColumnStore(t *testing.T) {
	root := t.TempDir()
	path := filepath.Join(root, "constant.csv")
	var b strings.Builder
	b.WriteString("a,b,c\n")
	for i := 0; i < 50; i++ {
		fmt.Fprintf(&b, "%g,7,%g\n", 1.5*float64(i), float64(i*37%50)/3)
	}
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	ds, err := dataset.ReadCSVFile(path)
	if err != nil {
		t.Fatal(err)
	}
	region, err := oracle.NewRegion([]float64{30, 7, 8}, []float64{20, 1, 8})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, shards := range []int{1, 2} {
		dir := filepath.Join(root, fmt.Sprintf("s%d", shards))
		src, err := dataset.OpenCSVFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := core.Build(dir, src, core.BuildOptions{TargetChunkBytes: 256, Shards: shards}); err != nil {
			t.Fatalf("shards %d: build: %v", shards, err)
		}
		if err := verifyStore(dir); err != nil {
			t.Fatalf("shards %d: -verify: %v", shards, err)
		}
		out := captureStdout(t, func() error { return inspectStore(dir) })
		if !strings.Contains(out, "straddling:    0 chunk(s)") {
			t.Errorf("shards %d: -inspect does not report 0 straddling chunks:\n%s", shards, out)
		}
		idx, err := core.Open(ctx, dir, core.Options{MemoryBudgetBytes: ds.SizeBytes()})
		if err != nil {
			t.Fatalf("shards %d: open: %v", shards, err)
		}
		provider, err := ide.NewUEIProvider(idx)
		if err != nil {
			t.Fatal(err)
		}
		user, err := oracle.New(ds, region) // it counts the labels it gives
		if err != nil {
			t.Fatal(err)
		}
		sess, err := ide.NewSession(ide.Config{
			MaxLabels:        8,
			EstimatorFactory: func() learn.Classifier { return learn.NewDWKNN(3, []float64{75, 1, 17}) },
			Strategy:         al.LeastConfidence{},
			Seed:             1,
			SeedWithPositive: true,
		}, provider, ide.OracleLabeler{O: user})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sess.Run(ctx)
		if err != nil {
			t.Fatalf("shards %d: session: %v", shards, err)
		}
		if res.LabelsUsed != 8 || len(res.Positive) == 0 {
			t.Errorf("shards %d: %d labels used, %d rows retrieved", shards, res.LabelsUsed, len(res.Positive))
		}
		sess.Release()
		idx.Close()
	}
}

// captureStdout runs f with the process's standard output sent to a pipe
// and returns what it printed.
func captureStdout(t *testing.T, f func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	done := make(chan []byte)
	go func() {
		out, _ := io.ReadAll(r)
		done <- out
	}()
	ferr := f()
	os.Stdout = stdout
	w.Close()
	out := <-done
	if ferr != nil {
		t.Fatal(ferr)
	}
	return string(out)
}

// TestFormat3StoreRefusedAtOpen: a store whose part manifests say format 3
// — raw values and raw idmaps — fails core.Open, shard.Open and -verify
// with ErrFormatVersion naming the rebuild, at one shard and at two, and
// before any chunk is read: every data file is overwritten with zeros of
// its own length, so a chunk read would fail on its magic first.
func TestFormat3StoreRefusedAtOpen(t *testing.T) {
	ds, err := dataset.GenerateSky(dataset.SkyConfig{N: 2000, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, shards := range []int{1, 2} {
		dir := filepath.Join(t.TempDir(), "store")
		if err := core.Build(dir, ds, core.BuildOptions{TargetChunkBytes: 4096, Shards: shards}); err != nil {
			t.Fatal(err)
		}
		manifests := 0
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			switch {
			case d.Name() == "manifest.json" && filepath.Base(filepath.Dir(path)) != filepath.Base(dir):
				manifests++
				data = []byte(strings.Replace(string(data), `"format_version": 4`, `"format_version": 3`, 1))
			case strings.HasSuffix(d.Name(), ".chk"):
				data = make([]byte, len(data))
			default:
				return nil
			}
			return os.WriteFile(path, data, 0o644)
		})
		if err != nil || manifests != shards {
			t.Fatalf("shards %d: rewrote %d part manifests, err %v", shards, manifests, err)
		}
		refused := func(what string, err error) {
			t.Helper()
			if !errors.Is(err, chunkstore.ErrFormatVersion) || !strings.Contains(err.Error(), "rebuild the store with uei-ingest") {
				t.Errorf("shards %d: %s: err = %v, want ErrFormatVersion naming the rebuild", shards, what, err)
			}
		}
		_, err = core.Open(ctx, dir, core.Options{MemoryBudgetBytes: ds.SizeBytes()})
		refused("core.Open", err)
		_, err = shard.Open(ctx, dir, shard.OpenOptions{})
		refused("shard.Open", err)
		refused("-verify", verifyStore(dir))
	}
}
