package chunkstore

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/uei-db/uei/internal/dataset"
	"github.com/uei-db/uei/internal/vec"
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
// leaves no run file behind.
func TestSpilledBuildMatchesUnspilled(t *testing.T) {
	ds, err := dataset.GenerateSky(dataset.SkyConfig{N: 3000, Seed: 201})
	if err != nil {
		t.Fatal(err)
	}
	whole := t.TempDir()
	if _, err := Build(whole, ds, BuildOptions{TargetChunkBytes: 2048}); err != nil {
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
}

func TestBuildRowsReopen(t *testing.T) {
	lowerSpillPairs(t, 100)
	ds, _ := dataset.GenerateSky(dataset.SkyConfig{N: 500, Seed: 202})
	dir := t.TempDir()
	if _, err := BuildRows(dir, ds.Schema().Names(), datasetRows(ds), BuildOptions{TargetChunkBytes: 1024}); err != nil {
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
		if !vec.Equal(r.Vals, ds.Row(dataset.RowID(r.ID))) {
			t.Errorf("row %d differs after a spilled build", r.ID)
		}
	}
}

func TestBuildRowsValidation(t *testing.T) {
	ds, _ := dataset.GenerateSky(dataset.SkyConfig{N: 10, Seed: 1})
	cols := ds.Schema().Names()
	if _, err := BuildRows(t.TempDir(), nil, datasetRows(ds), BuildOptions{}); err == nil {
		t.Error("no columns should fail")
	}
	if _, err := BuildRows(t.TempDir(), cols, nil, BuildOptions{}); err == nil {
		t.Error("nil iterator should fail")
	}
	if _, err := BuildRows(t.TempDir(), cols, datasetRows(ds), BuildOptions{TargetChunkBytes: 8}); err == nil {
		t.Error("tiny chunk target should fail")
	}
	if _, err := BuildRows(t.TempDir(), cols, rowsOf(), BuildOptions{}); err == nil {
		t.Error("empty stream should fail")
	}
	ragged := rowsOf([]float64{1, 2, 3, 4, 5}, []float64{1})
	if _, err := BuildRows(t.TempDir(), cols, ragged, BuildOptions{}); err == nil || !strings.Contains(err.Error(), "row 1 has 1 values, want 5") {
		t.Errorf("ragged rows: err = %v", err)
	}
	failing := func() ([]float64, bool, error) { return nil, false, fmt.Errorf("source broke") }
	if _, err := BuildRows(t.TempDir(), cols, failing, BuildOptions{}); err == nil || !strings.Contains(err.Error(), "source broke") {
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
