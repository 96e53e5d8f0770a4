package shard

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"github.com/uei-db/uei/internal/chunkstore"
	"github.com/uei-db/uei/internal/dataset"
	"github.com/uei-db/uei/internal/grid"
	"github.com/uei-db/uei/internal/vec"
)

// flatCoordinator opens the chunk store in dir as the one part of a
// one-shard coordinator over a grid on the given bounds — the way a
// one-shard store's identity part is opened, except that the bounds are
// the caller's.
func flatCoordinator(t *testing.T, dir string, bounds vec.Box, segments int) *Coordinator {
	t.Helper()
	st, err := chunkstore.Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	g, err := grid.New(bounds, segments)
	if err != nil {
		t.Fatal(err)
	}
	mp, err := grid.BuildMapping(g, st)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewLocalCoordinator(g, st.Manifest().Columns, []*Shard{{Parts: []Part{{Store: st, Mapping: mp}}}}, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// retrieveMasks returns a fully marked mask and one with only the last
// segment of dimension 0 marked: the two arms of the scan's per-entry
// segment test.
func retrieveMasks(dims, segments int) map[string][][]bool {
	full := make([][]bool, dims)
	partial := make([][]bool, dims)
	for d := range full {
		full[d] = make([]bool, segments)
		partial[d] = make([]bool, segments)
		for s := range full[d] {
			full[d][s] = true
			partial[d][s] = d > 0 || s == segments-1
		}
	}
	return map[string][][]bool{"fully marked": full, "partially marked": partial}
}

// TestRetrieveRejectsBadPostings: the scan indexes a block by posting id
// and skips the segment lookup when every segment is marked, so a posting
// id beyond the store's row count and a value outside the grid domain must
// each come back as an error — under both arms of the segment test —
// never as an index panic or a silently accepted row.
func TestRetrieveRejectsBadPostings(t *testing.T) {
	const segments = 4
	ds := skyDataset(t, 400)
	bounds, err := ds.Bounds()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	build := func() string {
		dir := t.TempDir()
		if _, err := chunkstore.Build(dir, ds, chunkstore.BuildOptions{TargetChunkBytes: 2048}); err != nil {
			t.Fatal(err)
		}
		return dir
	}

	t.Run("posting id beyond row count", func(t *testing.T) {
		// The chunks of a 400-row store under a manifest claiming 300.
		dir := build()
		path := filepath.Join(dir, "manifest.json")
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var man map[string]any
		if err := json.Unmarshal(raw, &man); err != nil {
			t.Fatal(err)
		}
		man["row_count"] = 300
		if raw, err = json.Marshal(man); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		c := flatCoordinator(t, dir, bounds, segments)
		for name, marked := range retrieveMasks(ds.Dims(), segments) {
			_, _, err := c.Retrieve(ctx, marked)
			if err == nil || !strings.Contains(err.Error(), "out of range [0,300)") {
				t.Errorf("%s: err = %v, want a row-out-of-range error", name, err)
			}
		}
	})

	t.Run("value outside the grid domain", func(t *testing.T) {
		// A grid that ends, on dimension 0, at the median of the stored
		// values: the chunk straddling the new maximum is read under both
		// masks and holds values past it.
		col := make([]float64, ds.Len())
		for i := range col {
			col[i] = ds.Row(dataset.RowID(i))[0]
		}
		narrow := vec.NewBox(append([]float64(nil), bounds.Min...), append([]float64(nil), bounds.Max...))
		slices.Sort(col)
		narrow.Max[0] = col[len(col)/2]
		c := flatCoordinator(t, build(), narrow, segments)
		for name, marked := range retrieveMasks(ds.Dims(), segments) {
			_, _, err := c.Retrieve(ctx, marked)
			if err == nil || !strings.Contains(err.Error(), "outside domain") {
				t.Errorf("%s: err = %v, want an outside-domain error", name, err)
			}
		}
	})
}
