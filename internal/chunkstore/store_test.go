package chunkstore

import (
	"bytes"
	"context"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"testing/quick"

	"github.com/uei-db/uei/internal/dataset"
	"github.com/uei-db/uei/internal/obs"
	"github.com/uei-db/uei/internal/vec"
)

// buildTestStore builds a store over a small sky dataset with tiny chunks
// so multi-chunk code paths are exercised.
func buildTestStore(t *testing.T, n int, seed int64) (*Store, *dataset.Dataset) {
	t.Helper()
	ds, err := dataset.GenerateSky(dataset.SkyConfig{N: n, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	st, err := Build(t.TempDir(), ds, BuildOptions{TargetChunkBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st, ds
}

// writeExtent overwrites chunk meta's extent in its data file with data,
// which must be as long.
func writeExtent(t testing.TB, dir string, meta ChunkMeta, data []byte) {
	t.Helper()
	if int64(len(data)) != meta.Bytes {
		t.Fatalf("%d bytes for the %d of chunk %s", len(data), meta.Bytes, meta.File)
	}
	f, err := os.OpenFile(filepath.Join(dir, dataFileName(meta.Dim)), os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt(data, meta.Offset); err != nil {
		t.Fatal(err)
	}
}

// readExtentBytes returns chunk meta's bytes from its data file.
func readExtentBytes(t testing.TB, dir string, meta ChunkMeta) []byte {
	t.Helper()
	whole, err := os.ReadFile(filepath.Join(dir, dataFileName(meta.Dim)))
	if err != nil {
		t.Fatal(err)
	}
	return whole[meta.Offset : meta.Offset+meta.Bytes]
}

// cutOne appends entries to w as one chunk of dimension dim and returns
// its record, as the writer makes it.
func cutOne(t testing.TB, w io.Writer, dim int, entries []Entry) ChunkMeta {
	t.Helper()
	cut := chunkCutter{w: w, dim: dim, target: math.MaxInt}
	for _, e := range entries {
		if err := cut.add(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := cut.flush(); err != nil {
		t.Fatal(err)
	}
	return cut.metas[0]
}

// spliceChunk replaces chunk meta of st with the encoding of entries, in
// its data file — moving the chunks after it — and in st's manifest, whose
// records of the dimension it keeps true to the file and checks nothing
// else of. It returns the chunk's new record.
func spliceChunk(t testing.TB, st *Store, meta ChunkMeta, entries []Entry) ChunkMeta {
	t.Helper()
	var buf bytes.Buffer
	spliced := cutOne(t, &buf, meta.Dim, entries)
	path := filepath.Join(st.dir, dataFileName(meta.Dim))
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	whole = slices.Replace(whole, int(meta.Offset), int(meta.Offset+meta.Bytes), buf.Bytes()...)
	if err := os.WriteFile(path, whole, 0o644); err != nil {
		t.Fatal(err)
	}
	chunks := st.manifest.Chunks[meta.Dim]
	chunks[meta.Seq] = spliced
	var off int64
	for q := range chunks {
		chunks[q].Seq, chunks[q].File, chunks[q].Offset = q, chunkName(meta.Dim, q), off
		off += chunks[q].Bytes
	}
	return chunks[meta.Seq]
}

func TestBuildValidation(t *testing.T) {
	empty := dataset.New(dataset.MustSchema("x"), 0)
	if _, err := Build(t.TempDir(), empty, BuildOptions{}); err == nil {
		t.Error("empty dataset should fail")
	}
	ds, _ := dataset.GenerateSky(dataset.SkyConfig{N: 10, Seed: 1})
	if _, err := Build(t.TempDir(), ds, BuildOptions{TargetChunkBytes: 16}); err == nil {
		t.Error("tiny chunk target should fail")
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "junk"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Build(dir, ds, BuildOptions{}); err == nil {
		t.Error("non-empty directory should fail")
	}
}

func TestBuildAndOpen(t *testing.T) {
	ds, err := dataset.GenerateSky(dataset.SkyConfig{N: 1000, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	st, err := Build(dir, ds, BuildOptions{TargetChunkBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if st.RowCount() != 1000 || st.Dims() != 5 {
		t.Fatalf("RowCount=%d Dims=%d", st.RowCount(), st.Dims())
	}
	wantBounds, _ := ds.Bounds()
	if !slices.Equal(st.Bounds().Min, wantBounds.Min) || !slices.Equal(st.Bounds().Max, wantBounds.Max) {
		t.Error("store bounds disagree with dataset bounds")
	}
	if st.TotalBytes() <= 0 {
		t.Error("TotalBytes should be positive")
	}

	reopened, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if reopened.RowCount() != 1000 {
		t.Errorf("reopened RowCount = %d", reopened.RowCount())
	}
	// Every dimension's chunks must tile the value space in ascending,
	// non-overlapping order and their data file back to back, and the
	// directory holds the manifest and one data file per dimension.
	m := reopened.Manifest()
	want := []string{manifestFile}
	for d, chunks := range m.Chunks {
		if len(chunks) < 2 {
			t.Errorf("dimension %d has %d chunks; want multiple at 4 KiB target", d, len(chunks))
		}
		var off int64
		for i, c := range chunks {
			if i > 0 && chunks[i-1].MaxValue >= c.MinValue {
				t.Errorf("dimension %d chunks %d/%d overlap", d, i-1, i)
			}
			if c.Offset != off || c.File != chunkName(d, i) {
				t.Errorf("dimension %d chunk %d is %s at %d, want %s at %d", d, i, c.File, c.Offset, chunkName(d, i), off)
			}
			off += c.Bytes
		}
		want = append(want, dataFileName(d))
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range entries {
		got = append(got, e.Name())
	}
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Errorf("store directory holds %v, want %v", got, want)
	}
}

func TestOpenMissingManifest(t *testing.T) {
	if _, err := Open(t.TempDir(), nil); err == nil {
		t.Error("missing manifest should fail")
	}
}

func TestOpenCorruptManifest(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, manifestFile), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, nil); err == nil {
		t.Error("corrupt manifest should fail")
	}
}

func TestChunksOverlapping(t *testing.T) {
	st, _ := buildTestStore(t, 800, 3)
	all := st.Manifest().Chunks[0]
	full, err := st.ChunksOverlapping(0, math.Inf(-1), math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(full) != len(all) {
		t.Errorf("full range returned %d chunks, want %d", len(full), len(all))
	}
	// A range strictly inside one chunk returns exactly that chunk.
	mid := all[len(all)/2]
	span := mid.MaxValue - mid.MinValue
	if span > 0 {
		lo := mid.MinValue + span*0.25
		hi := mid.MinValue + span*0.5
		got, err := st.ChunksOverlapping(0, lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 || got[0].File != mid.File {
			t.Errorf("interior range returned %d chunks", len(got))
		}
	}
	// Out-of-range queries return nothing.
	if got, _ := st.ChunksOverlapping(0, all[len(all)-1].MaxValue+1, all[len(all)-1].MaxValue+2); len(got) != 0 {
		t.Errorf("beyond-max range returned %d chunks", len(got))
	}
	if _, err := st.ChunksOverlapping(9, 0, 1); err == nil {
		t.Error("bad dimension should fail")
	}
	if _, err := st.ChunksOverlapping(0, 2, 1); err == nil {
		t.Error("inverted range should fail")
	}
}

func TestReadChunkAndIOStats(t *testing.T) {
	st, _ := buildTestStore(t, 500, 4)
	meta := st.Manifest().Chunks[1][0]
	entries, err := st.ReadChunk(context.Background(), meta)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != meta.Entries {
		t.Errorf("decoded %d entries, manifest says %d", len(entries), meta.Entries)
	}
	bytes, chunks := st.IOStats()
	if bytes != meta.Bytes || chunks != 1 {
		t.Errorf("IOStats = (%d, %d), want (%d, 1)", bytes, chunks, meta.Bytes)
	}
	st.ResetIOStats()
	if b, c := st.IOStats(); b != 0 || c != 0 {
		t.Error("ResetIOStats failed")
	}
}

func TestReadChunkDetectsCorruption(t *testing.T) {
	ds, _ := dataset.GenerateSky(dataset.SkyConfig{N: 300, Seed: 5})
	dir := t.TempDir()
	st, err := Build(dir, ds, BuildOptions{TargetChunkBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	meta := st.Manifest().Chunks[0][0]
	data := readExtentBytes(t, dir, meta)
	data[len(data)/2] ^= 0xff
	writeExtent(t, dir, meta, data)
	if _, err := st.ReadChunk(context.Background(), meta); err == nil {
		t.Error("corrupted chunk read should fail")
	}
}

func TestReadChunkMissingFile(t *testing.T) {
	st, _ := buildTestStore(t, 100, 6)
	meta := st.Manifest().Chunks[0][0]
	meta.File = "no_such_file.chk"
	if _, err := st.ReadChunk(context.Background(), meta); err == nil {
		t.Error("missing chunk file should fail")
	}
}

func TestMergeRegionMatchesBruteForce(t *testing.T) {
	st, ds := buildTestStore(t, 2000, 7)
	bounds, _ := ds.Bounds()
	widths := bounds.Widths()
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 10; trial++ {
		center := ds.Row(dataset.RowID(rng.Intn(ds.Len())))
		min := make([]float64, 5)
		max := make([]float64, 5)
		for j := 0; j < 5; j++ {
			half := widths[j] * (0.05 + rng.Float64()*0.2)
			min[j] = center[j] - half
			max[j] = center[j] + half
		}
		box := vec.NewBox(min, max)

		rows, visited, err := st.MergeRegion(context.Background(), box)
		if err != nil {
			t.Fatal(err)
		}
		want := ds.Select(box)
		if len(rows) != len(want) {
			t.Fatalf("trial %d: merge found %d rows, brute force %d", trial, len(rows), len(want))
		}
		for i, r := range rows {
			if r.ID != uint32(want[i]) {
				t.Fatalf("trial %d: row %d id %d, want %d", trial, i, r.ID, want[i])
			}
			if !slices.Equal(r.Vals, ds.Row(want[i])) {
				t.Fatalf("trial %d: row %d values %v, want %v", trial, i, r.Vals, ds.Row(want[i]))
			}
		}
		if visited <= 0 {
			t.Errorf("trial %d: no entries visited", trial)
		}
	}
}

func TestMergeRegionEmptyResult(t *testing.T) {
	st, _ := buildTestStore(t, 300, 9)
	// A box beyond the data domain matches nothing.
	min := []float64{3000, 3000, 400, 95, 1100}
	box := vec.NewBox(min, []float64{3001, 3001, 401, 96, 1101})
	rows, _, err := st.MergeRegion(context.Background(), box)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 0 {
		t.Errorf("expected empty result, got %d rows", len(rows))
	}
}

func TestMergeRegionDimsMismatch(t *testing.T) {
	st, _ := buildTestStore(t, 100, 10)
	box := vec.NewBox([]float64{0}, []float64{1})
	if _, _, err := st.MergeRegion(context.Background(), box); err == nil {
		t.Error("dims mismatch should fail")
	}
}

func TestFetchRows(t *testing.T) {
	st, ds := buildTestStore(t, 600, 11)
	ids := []uint32{0, 17, 599, 300}
	rows, err := st.FetchRows(context.Background(), ids)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(ids) {
		t.Fatalf("fetched %d rows, want %d", len(rows), len(ids))
	}
	// Returned sorted by id.
	wantOrder := []uint32{0, 17, 300, 599}
	for i, r := range rows {
		if r.ID != wantOrder[i] {
			t.Fatalf("row %d id %d, want %d", i, r.ID, wantOrder[i])
		}
		if !slices.Equal(r.Vals, ds.Row(dataset.RowID(r.ID))) {
			t.Fatalf("row %d values differ", r.ID)
		}
	}
	if rows, err := st.FetchRows(context.Background(), nil); err != nil || rows != nil {
		t.Error("empty fetch should be a no-op")
	}
	if _, err := st.FetchRows(context.Background(), []uint32{10000}); err == nil {
		t.Error("out-of-range id should fail")
	}
}

func TestChunkSizesRoughlyEqual(t *testing.T) {
	st, _ := buildTestStore(t, 3000, 12)
	const target = 2048
	for d, chunks := range st.Manifest().Chunks {
		for i, c := range chunks {
			// The writer cuts as soon as the exact payload reaches the
			// target: every chunk but a dimension's last has reached it,
			// and none had reached it one entry earlier.
			if payload := c.Bytes - headerSize - 4; i < len(chunks)-1 && payload < target {
				t.Errorf("dim %d chunk %d has a %d-byte payload, below target %d", d, i, payload, target)
			}
			entries, err := st.ReadChunk(context.Background(), c)
			if err != nil {
				t.Fatal(err)
			}
			cut := chunkCutter{target: math.MaxInt}
			for _, e := range entries[:len(entries)-1] {
				if err := cut.add(e); err != nil {
					t.Fatal(err)
				}
			}
			if cut.payload() >= target {
				t.Errorf("dim %d chunk %d: %d bytes of payload before its last entry, the writer should have cut there", d, i, cut.payload())
			}
		}
	}
}

func TestQuickMergeEquivalence(t *testing.T) {
	// Property: MergeRegion over random boxes on a shared store always
	// equals the brute-force filter.
	ds, err := dataset.GenerateSky(dataset.SkyConfig{N: 700, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	st, err := Build(t.TempDir(), ds, BuildOptions{TargetChunkBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	bounds, _ := ds.Bounds()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		min := make([]float64, 5)
		max := make([]float64, 5)
		for j := 0; j < 5; j++ {
			a := bounds.Min[j] + rng.Float64()*(bounds.Max[j]-bounds.Min[j])
			b := bounds.Min[j] + rng.Float64()*(bounds.Max[j]-bounds.Min[j])
			min[j], max[j] = math.Min(a, b), math.Max(a, b)
		}
		box := vec.NewBox(min, max)
		rows, _, err := st.MergeRegion(context.Background(), box)
		if err != nil {
			return false
		}
		want := ds.Select(box)
		if len(rows) != len(want) {
			return false
		}
		for i := range rows {
			if rows[i].ID != uint32(want[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestChunkReadSpanReportsFileBytes: a traced chunk read's "chunk_read"
// span carries the bytes read from the file — the manifest's Bytes — not
// what the decoded chunk costs in memory, for a chunk of one-row postings
// and for the "field" dimension's multi-row one alike.
func TestChunkReadSpanReportsFileBytes(t *testing.T) {
	st, _ := buildTestStore(t, 2000, 5)
	var buf bytes.Buffer
	ctx, root := obs.StartSpan(obs.ContextWithTrace(context.Background(), obs.NewTracer(&buf).NewTrace()), "test")
	metas := []ChunkMeta{st.Manifest().Chunks[1][1], st.Manifest().Chunks[4][0]}
	for _, meta := range metas {
		if _, err := st.readChunkDisk(ctx, meta); err != nil {
			t.Fatal(err)
		}
	}
	root.End(nil)
	events, err := obs.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var reads []obs.Event
	for _, e := range events {
		if e.Phase == "chunk_read" {
			reads = append(reads, e)
		}
	}
	if len(reads) != len(metas) {
		t.Fatalf("%d chunk_read spans for %d reads", len(reads), len(metas))
	}
	for i, e := range reads {
		m := metas[i]
		if e.Attrs["dim"] != float64(m.Dim) || e.Attrs["seq"] != float64(m.Seq) || e.Attrs["bytes"] != float64(m.Bytes) {
			t.Errorf("chunk_read of %s: dim %v seq %v bytes %v, want %d %d %d", m.File, e.Attrs["dim"], e.Attrs["seq"], e.Attrs["bytes"], m.Dim, m.Seq, m.Bytes)
		}
	}
}
