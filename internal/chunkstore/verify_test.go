package chunkstore

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"github.com/uei-db/uei/internal/dataset"
)

// reopenDoctored saves a copy of the store's manifest after doctor has
// changed it and opens the directory again, as a later process would.
func reopenDoctored(t *testing.T, st *Store, doctor func(m *Manifest)) (*Store, error) {
	t.Helper()
	raw, err := json.Marshal(st.manifest)
	if err != nil {
		t.Fatal(err)
	}
	var m Manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	doctor(&m)
	if err := saveManifest(st.dir, &m); err != nil {
		t.Fatal(err)
	}
	return Open(st.dir, nil)
}

// rewriteChunk replaces a chunk file and makes its manifest record agree
// with the new contents in every field, so only what the entries themselves
// break is left for Verify to find.
func rewriteChunk(t *testing.T, st *Store, meta ChunkMeta, entries []Entry) *Store {
	t.Helper()
	got, err := writeChunkFile(st.dir, meta.Dim, meta.Seq, entries)
	if err != nil {
		t.Fatal(err)
	}
	re, err := reopenDoctored(t, st, func(m *Manifest) { m.Chunks[meta.Dim][meta.Seq] = got })
	if err != nil {
		t.Fatal(err)
	}
	return re
}

func requireVerifyField(t *testing.T, what string, st *Store, field, file string) {
	t.Helper()
	err := Verify(context.Background(), st)
	var ve *VerifyError
	if !errors.As(err, &ve) {
		t.Fatalf("%s: err = %v, want a *VerifyError on %q", what, err, field)
	}
	if ve.Field != field || ve.File != file {
		t.Fatalf("%s: Verify blames %q of chunk %q (%v), want %q of %q", what, ve.Field, ve.File, err, field, file)
	}
	if !strings.Contains(err.Error(), field) {
		t.Fatalf("%s: message %q does not name %q", what, err, field)
	}
}

// TestVerify: stores from every builder in this package verify clean, and
// each manifest field Verify checks, doctored in turn on a small store — as
// is each property of the chunk contents — comes back as the first
// violation, by field and by chunk.
func TestVerify(t *testing.T) {
	ctx := context.Background()
	mem, sky := buildTestStore(t, 3000, 5)
	lowerSpillPairs(t, 257)
	spilled, err := Build(t.TempDir(), sky, BuildOptions{TargetChunkBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	empty, err := BuildEmpty(t.TempDir(), []string{"a", "b"}, mem.Bounds(), 0)
	if err != nil {
		t.Fatal(err)
	}
	piped, _ := lumpyStore(t, 900, 3, 12, 256, 3)
	piped.SetWorkers(3)
	for name, st := range map[string]*Store{"Build": mem, "spilled": spilled, "BuildEmpty": empty, "pipelined": piped} {
		if err := Verify(ctx, st); err != nil {
			t.Errorf("%s: a freshly built store fails Verify: %v", name, err)
		}
	}

	fresh := func() *Store {
		st, _ := lumpyStore(t, 600, 2, 20, 128, 7)
		if len(st.manifest.Chunks[0]) < 3 {
			t.Fatalf("store has %d chunks per dimension, the test wants several", len(st.manifest.Chunks[0]))
		}
		return st
	}
	last := len(fresh().manifest.Chunks[0]) - 1
	fields := []struct {
		field, file string
		doctor      func(m *Manifest)
	}{
		{"bytes", "d01_c00001.chk", func(m *Manifest) { m.Chunks[1][1].Bytes++ }},
		{"entries", "d00_c00001.chk", func(m *Manifest) { m.Chunks[0][1].Entries++ }},
		{"row_refs", "d01_c00000.chk", func(m *Manifest) { m.Chunks[1][0].RowRefs-- }},
		{"min_value", "d00_c00000.chk", func(m *Manifest) { m.Chunks[0][0].MinValue -= 0.5 }},
		{"max_value", fmt.Sprintf("d00_c%05d.chk", last), func(m *Manifest) { m.Chunks[0][last].MaxValue += 0.5 }},
		{"row_count", "", func(m *Manifest) { m.RowCount++ }},
	}
	for _, c := range fields {
		st, err := reopenDoctored(t, fresh(), c.doctor)
		if err != nil {
			t.Fatalf("%s: %v", c.field, err)
		}
		requireVerifyField(t, "doctored "+c.field, st, c.field, c.file)
	}

	// One row fewer than the chunks post: the largest id is out of range.
	st, err := reopenDoctored(t, fresh(), func(m *Manifest) { m.RowCount-- })
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(ctx, st); err == nil || !strings.Contains(err.Error(), "rows: row 599 out of range [0,599)") {
		t.Fatalf("row count one short: err = %v", err)
	}

	// A row id posted under two values of one dimension.
	st = fresh()
	meta := st.manifest.Chunks[1][1]
	entries, err := st.ReadChunk(ctx, meta)
	if err != nil {
		t.Fatal(err)
	}
	entries[0].Rows = append(entries[0].Rows, entries[1].Rows[0])
	slices.Sort(entries[0].Rows)
	requireVerifyField(t, "row posted twice", rewriteChunk(t, st, meta, entries), "rows", meta.File)

	// A row id no value of a dimension posts.
	st = fresh()
	meta = st.manifest.Chunks[0][1]
	if entries, err = st.ReadChunk(ctx, meta); err != nil {
		t.Fatal(err)
	}
	entries[0].Rows = entries[0].Rows[1:]
	requireVerifyField(t, "row never posted", rewriteChunk(t, st, meta, entries), "row_count", "")

	// A chunk of another dimension under this one's name: same entries,
	// same size, only the header's dimension differs.
	st = fresh()
	meta = st.manifest.Chunks[0][1]
	if entries, err = st.ReadChunk(ctx, meta); err != nil {
		t.Fatal(err)
	}
	other, err := encodeChunk(1, entries)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(st.dir, meta.File), other, 0o644); err != nil {
		t.Fatal(err)
	}
	requireVerifyField(t, "chunk of another dimension", st, "dim", meta.File)

	// Bytes that are not a chunk, and no bytes at all.
	st = fresh()
	meta = st.manifest.Chunks[1][2]
	path := filepath.Join(st.dir, meta.File)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[headerSize+3] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	requireVerifyField(t, "flipped bit", st, "file", meta.File)
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	requireVerifyField(t, "missing file", st, "file", meta.File)

	// Values out of order inside a chunk whose counts, range, size and CRC
	// all hold: 100 distinct values on 100 rows make every posting one
	// row, so two values can trade places in the value column.
	ds := dataset.New(dataset.MustSchema("x"), 100)
	for i := 0; i < 100; i++ {
		if _, err := ds.Append([]float64{float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	st, err = Build(t.TempDir(), ds, BuildOptions{TargetChunkBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	meta = st.manifest.Chunks[0][1]
	if meta.Entries < 4 {
		t.Fatalf("chunk has %d entries, the swap wants four", meta.Entries)
	}
	path = filepath.Join(st.dir, meta.File)
	if data, err = os.ReadFile(path); err != nil {
		t.Fatal(err)
	}
	body := data[:len(data)-4]
	a, b := body[headerSize+8:headerSize+16], body[headerSize+16:headerSize+24]
	for i := range a {
		a[i], b[i] = b[i], a[i]
	}
	if err := os.WriteFile(path, reseal(body), 0o644); err != nil {
		t.Fatal(err)
	}
	requireVerifyField(t, "values out of order", st, "order", meta.File)

	// A cancelled walk is the context's error, not a verdict on the store.
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if err := Verify(cancelled, mem); !errors.Is(err, context.Canceled) || errors.As(err, new(*VerifyError)) {
		t.Fatalf("cancelled Verify: err = %v", err)
	}
}

// TestManifestRejectsImpossibleCounts: a manifest whose chunk records could
// size a negative or absurd allocation does not open.
func TestManifestRejectsImpossibleCounts(t *testing.T) {
	for name, doctor := range map[string]func(c *ChunkMeta){
		"negative entries":  func(c *ChunkMeta) { c.Entries = -1 },
		"negative row refs": func(c *ChunkMeta) { c.RowRefs = -5 },
		"negative bytes":    func(c *ChunkMeta) { c.Bytes = -1 },
		"bytes below a minimal chunk": func(c *ChunkMeta) {
			c.Bytes = headerSize + 4 + minEntrySize - 1
		},
	} {
		st, _ := buildTestStore(t, 300, 9)
		if _, err := reopenDoctored(t, st, func(m *Manifest) { doctor(&m.Chunks[2][0]) }); err == nil || !strings.Contains(err.Error(), "d02_c00000.chk") {
			t.Errorf("%s: Open err = %v, want a refusal naming the chunk", name, err)
		}
	}
}

// TestManifestRejectsForeignChunkNames: a chunk record must name the one
// file writeChunkFile gives its place, so no manifest sends a read out of
// the store's directory, or lets two records share a file and a block-cache
// key.
func TestManifestRejectsForeignChunkNames(t *testing.T) {
	outside := filepath.Join(t.TempDir(), "x.chk")
	for name, doctor := range map[string]func(m *Manifest){
		"parent directory": func(m *Manifest) { m.Chunks[0][1].File = "../x" },
		"absolute path":    func(m *Manifest) { m.Chunks[0][1].File = outside },
		"duplicate name":   func(m *Manifest) { m.Chunks[0][1].File = m.Chunks[0][0].File },
		"swapped seqs": func(m *Manifest) {
			a, b := &m.Chunks[0][1], &m.Chunks[0][2]
			a.File, b.File = b.File, a.File
		},
	} {
		st, _ := buildTestStore(t, 800, 9)
		if len(st.manifest.Chunks[0]) < 3 {
			t.Fatalf("store has %d chunks on dimension 0, the test wants three", len(st.manifest.Chunks[0]))
		}
		if _, err := reopenDoctored(t, st, doctor); err == nil || !strings.Contains(err.Error(), "misfiled") {
			t.Errorf("%s: Open err = %v, want a misfiled-chunk refusal", name, err)
		}
	}
}
