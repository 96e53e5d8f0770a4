package chunkstore

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"github.com/uei-db/uei/internal/dataset"
)

// lowerSpillPairs makes every build in the test spill a sorted run each n
// pairs per dimension.
func lowerSpillPairs(t *testing.T, n int) {
	t.Helper()
	old := spillPairs
	spillPairs = n
	t.Cleanup(func() { spillPairs = old })
}

// rowsOf streams rows one at a time, as a reader of a file would.
func rowsOf(rows ...[]float64) RowIterator {
	return func() ([]float64, bool, error) {
		if len(rows) == 0 {
			return nil, false, nil
		}
		row := rows[0]
		rows = rows[1:]
		return row, true, nil
	}
}

// datasetRows streams the dataset's rows in id order.
func datasetRows(ds *dataset.Dataset) RowIterator {
	rows := make([][]float64, ds.Len())
	for i := range rows {
		rows[i] = ds.Row(dataset.RowID(i))
	}
	return rowsOf(rows...)
}

// requireSameFiles fails unless dirs a and b hold the same file names with
// the same bytes.
func requireSameFiles(t *testing.T, a, b string) {
	t.Helper()
	ea, err := os.ReadDir(a)
	if err != nil {
		t.Fatal(err)
	}
	eb, err := os.ReadDir(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(ea) != len(eb) {
		t.Fatalf("%d files vs %d", len(ea), len(eb))
	}
	for i := range ea {
		if ea[i].Name() != eb[i].Name() {
			t.Fatalf("file %d: %s vs %s", i, ea[i].Name(), eb[i].Name())
		}
		da, err := os.ReadFile(filepath.Join(a, ea[i].Name()))
		if err != nil {
			t.Fatal(err)
		}
		db, err := os.ReadFile(filepath.Join(b, eb[i].Name()))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(da, db) {
			t.Fatalf("%s differs", ea[i].Name())
		}
	}
}

// TestSpilledBuildMatchesUnspilled: a build that spills a sorted run every
// 257 pairs, and so k-way merges a dozen runs per dimension, writes the
// same files byte for byte as one that sorts each dimension in memory, and
// leaves no run file behind. Mixed -0 and +0 and values repeated across
// run boundaries must come out as one entry each, holding every id in
// ascending order, with the zero entry's value bits those of its lowest
// id's row: the two zeros tie and sort by id.
func TestSpilledBuildMatchesUnspilled(t *testing.T) {
	ds, err := dataset.GenerateSky(dataset.SkyConfig{N: 3000, Seed: 201})
	if err != nil {
		t.Fatal(err)
	}
	negZero := math.Copysign(0, -1)
	// Dimensions 3 and 4 hold no zero below row 240 (the generator clamps
	// other dimensions at +0): their zero entries start at -0 and +0.
	for i := 240; i < 280; i++ { // across the first run boundary, 257
		ds.Row(dataset.RowID(i))[3], ds.Row(dataset.RowID(i))[4] = 0, 0
		if i%3 == 0 {
			ds.Row(dataset.RowID(i))[3] = negZero
		}
		if i%3 == 1 {
			ds.Row(dataset.RowID(i))[4] = negZero
		}
	}
	for i := 500; i < 1040; i++ { // across the boundaries at 514, 771 and 1028
		if i < 530 || i >= 1020 {
			ds.Row(dataset.RowID(i))[2] = 1.25
		}
	}
	for i := 0; i < ds.Len(); i += 7 { // in every run
		ds.Row(dataset.RowID(i))[0] = 3.5
	}
	whole := t.TempDir()
	st, err := Build(whole, ds, BuildOptions{TargetChunkBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	lowerSpillPairs(t, 257)
	spilled := t.TempDir()
	if _, err := Build(spilled, ds, BuildOptions{TargetChunkBytes: 2048}); err != nil {
		t.Fatal(err)
	}
	requireSameFiles(t, whole, spilled)
	if left, _ := os.ReadDir(tmp); len(left) != 0 {
		t.Errorf("the build left %d entries in its spill directory's parent", len(left))
	}

	for _, c := range []struct {
		dim   int
		value float64
	}{{3, 0}, {4, 0}, {2, 1.25}, {0, 3.5}} {
		var want []uint32
		for i := 0; i < ds.Len(); i++ {
			if ds.Row(dataset.RowID(i))[c.dim] == c.value {
				want = append(want, uint32(i))
			}
		}
		e := entryOf(t, st, c.dim, c.value)
		wantBits := math.Float64bits(ds.Row(dataset.RowID(want[0]))[c.dim])
		if math.Float64bits(e.Value) != wantBits {
			t.Errorf("dim %d: entry value bits %#x, want %#x, row %d's", c.dim, math.Float64bits(e.Value), wantBits, want[0])
		}
		if !slices.Equal(e.Rows, want) {
			t.Errorf("dim %d value %g: entry holds %d ids, want the %d rows holding it", c.dim, c.value, len(e.Rows), len(want))
		}
	}
}

// entryOf returns dimension dim's entry for value v, failing the test
// unless exactly one chunk holds it.
func entryOf(t *testing.T, st *Store, dim int, v float64) Entry {
	t.Helper()
	metas, err := st.ChunksOverlapping(dim, v, v)
	if err != nil {
		t.Fatal(err)
	}
	var found []Entry
	for _, m := range metas {
		entries, err := st.ReadChunk(context.Background(), m)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if e.Value == v {
				found = append(found, e)
			}
		}
	}
	if len(found) != 1 {
		t.Fatalf("dim %d: %d entries hold %g, want 1", dim, len(found), v)
	}
	return found[0]
}

func TestBuildRowsReopen(t *testing.T) {
	lowerSpillPairs(t, 100)
	ds, _ := dataset.GenerateSky(dataset.SkyConfig{N: 500, Seed: 202})
	dir := t.TempDir()
	if _, err := BuildRows(dir, ds.Schema().Names(), datasetRows(ds), 0, nil, BuildOptions{TargetChunkBytes: 1024}); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.RowCount() != 500 {
		t.Errorf("RowCount = %d", st.RowCount())
	}
	got, err := st.FetchRows(context.Background(), []uint32{0, 499})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range got {
		if !slices.Equal(r.Vals, ds.Row(dataset.RowID(r.ID))) {
			t.Errorf("row %d differs after a spilled build", r.ID)
		}
	}
}

func TestBuildRowsValidation(t *testing.T) {
	ds, _ := dataset.GenerateSky(dataset.SkyConfig{N: 10, Seed: 1})
	cols := ds.Schema().Names()
	if _, err := BuildRows(t.TempDir(), nil, datasetRows(ds), 0, nil, BuildOptions{}); err == nil {
		t.Error("no columns should fail")
	}
	if _, err := BuildRows(t.TempDir(), cols, nil, 0, nil, BuildOptions{}); err == nil {
		t.Error("nil iterator should fail")
	}
	if _, err := BuildRows(t.TempDir(), cols, datasetRows(ds), 0, nil, BuildOptions{TargetChunkBytes: 8}); err == nil {
		t.Error("tiny chunk target should fail")
	}
	if _, err := BuildRows(t.TempDir(), cols, rowsOf(), 0, nil, BuildOptions{}); err == nil {
		t.Error("empty stream should fail")
	}
	ragged := rowsOf([]float64{1, 2, 3, 4, 5}, []float64{1})
	if _, err := BuildRows(t.TempDir(), cols, ragged, 0, nil, BuildOptions{}); err == nil || !strings.Contains(err.Error(), "row 1 has 1 values, want 5") {
		t.Errorf("ragged rows: err = %v", err)
	}
	failing := func() ([]float64, bool, error) { return nil, false, fmt.Errorf("source broke") }
	if _, err := BuildRows(t.TempDir(), cols, failing, 0, nil, BuildOptions{}); err == nil || !strings.Contains(err.Error(), "source broke") {
		t.Errorf("iterator error: err = %v", err)
	}
}

// TestBuildRejectsNonFinite: a NaN or an infinity fails the build naming
// its row and column, before any chunk file or manifest is written — so
// the same directory takes a retry with the value fixed.
func TestBuildRejectsNonFinite(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		ds, err := dataset.GenerateSky(dataset.SkyConfig{N: 500, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		ds.Row(7)[2] = v
		col := ds.Schema().Names()[2]
		dir := t.TempDir()
		_, err = Build(dir, ds, BuildOptions{TargetChunkBytes: 1024})
		want := fmt.Sprintf("row 7 column %q: non-finite value", col)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%v: err = %v, want it to contain %q", v, err, want)
		}
		left, _ := filepath.Glob(filepath.Join(dir, "*"))
		if len(left) != 0 {
			t.Errorf("%v: the failed build left %v", v, left)
		}
		ds.Row(7)[2] = 0
		if _, err := Build(dir, ds, BuildOptions{TargetChunkBytes: 1024}); err != nil {
			t.Errorf("%v: retry in the same directory: %v", v, err)
		}
	}
}
