package chunkstore

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"github.com/uei-db/uei/internal/dataset"
	"github.com/uei-db/uei/internal/vec"
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

// rewriteChunk replaces a chunk and makes its manifest record agree with
// the new contents in every field, so only what the entries themselves
// break is left for Verify to find.
func rewriteChunk(t *testing.T, st *Store, meta ChunkMeta, entries []Entry) *Store {
	t.Helper()
	spliceChunk(t, st, meta, entries)
	re, err := reopenDoctored(t, st, func(*Manifest) {})
	if err != nil {
		t.Fatal(err)
	}
	return re
}

// requireVerifyField fails unless Verify blames field of chunk — and, for
// a chunk, names it and its data file.
func requireVerifyField(t *testing.T, what string, st *Store, field, chunk string) {
	t.Helper()
	err := Verify(context.Background(), st)
	var ve *VerifyError
	if !errors.As(err, &ve) {
		t.Fatalf("%s: err = %v, want a *VerifyError on %q", what, err, field)
	}
	if ve.Field != field || ve.Chunk != chunk {
		t.Fatalf("%s: Verify blames %q of chunk %q (%v), want %q of %q", what, ve.Field, ve.Chunk, err, field, chunk)
	}
	want := []string{field}
	if chunk != "" {
		want = append(want, "chunk "+chunk+" of "+chunk[:3]+".chk")
	}
	for _, w := range want {
		if !strings.Contains(err.Error(), w) {
			t.Fatalf("%s: message %q does not name %q", what, err, w)
		}
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
	empty, err := BuildEmpty(t.TempDir(), []string{"a", "b"}, vec.NewBox([]float64{0, 0}, []float64{1, 1}), 0)
	if err != nil {
		t.Fatal(err)
	}
	for name, st := range map[string]*Store{"Build": mem, "spilled": spilled, "BuildEmpty": empty} {
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
		{"entries", "d00_c00001", func(m *Manifest) { m.Chunks[0][1].Entries++ }},
		{"row_refs", "d01_c00000", func(m *Manifest) { m.Chunks[1][0].RowRefs-- }},
		{"min_value", "d00_c00000", func(m *Manifest) { m.Chunks[0][0].MinValue -= 0.5 }},
		{"max_value", fmt.Sprintf("d00_c%05d", last), func(m *Manifest) { m.Chunks[0][last].MaxValue += 0.5 }},
		{"row_count", "", func(m *Manifest) { m.RowCount++ }},
	}
	for _, c := range fields {
		st, err := reopenDoctored(t, fresh(), c.doctor)
		if err != nil {
			t.Fatalf("%s: %v", c.field, err)
		}
		requireVerifyField(t, "doctored "+c.field, st, c.field, c.file)
	}
	// A size the data file does not hold is refused before Verify, at Open;
	// two sizes that trade a byte and keep the sum move the extents, so the
	// first of them no longer reads as a chunk.
	if _, err := reopenDoctored(t, fresh(), func(m *Manifest) { m.Chunks[1][1].Bytes++ }); err == nil || !strings.Contains(err.Error(), "d01.chk") {
		t.Fatalf("doctored bytes: Open err = %v, want a refusal naming d01.chk", err)
	}
	st, err := reopenDoctored(t, fresh(), func(m *Manifest) { m.Chunks[1][1].Bytes++; m.Chunks[1][2].Bytes-- })
	if err != nil {
		t.Fatal(err)
	}
	requireVerifyField(t, "traded bytes", st, "file", "d01_c00001")

	// One row fewer than the chunks post: the largest id is out of range.
	st, err = reopenDoctored(t, fresh(), func(m *Manifest) { m.RowCount-- })
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
	writeExtent(t, st.dir, meta, other)
	requireVerifyField(t, "chunk of another dimension", st, "dim", meta.File)

	// Bytes that are not a chunk, and no data file at all, which Open
	// refuses by name.
	st = fresh()
	meta = st.manifest.Chunks[1][2]
	data := readExtentBytes(t, st.dir, meta)
	data[headerSize+3] ^= 0x40
	writeExtent(t, st.dir, meta, data)
	requireVerifyField(t, "flipped bit", st, "file", meta.File)
	if err := os.Remove(filepath.Join(st.dir, "d01.chk")); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(st.dir, nil); err == nil || !strings.Contains(err.Error(), "d01.chk") {
		t.Fatalf("missing data file: Open err = %v, want a refusal naming d01.chk", err)
	}

	// Values out of order inside a chunk whose counts, size and CRC all
	// hold: a first value of +Inf, whose key leaves every gap after it
	// past the keys of numbers.
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
	data = readExtentBytes(t, st.dir, meta)
	body := data[:len(data)-4]
	binary.LittleEndian.PutUint64(body[20:28], math.Float64bits(math.Inf(1)))
	writeExtent(t, st.dir, meta, reseal(body))
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
		if _, err := reopenDoctored(t, st, func(m *Manifest) { doctor(&m.Chunks[2][0]) }); err == nil || !strings.Contains(err.Error(), "d02_c00000") {
			t.Errorf("%s: Open err = %v, want a refusal naming the chunk", name, err)
		}
	}
}
