package core

import (
	"context"
	"path/filepath"
	"testing"

	"github.com/uei-db/uei/internal/dataset"
	"github.com/uei-db/uei/internal/grid"
	"github.com/uei-db/uei/internal/shard"
	"github.com/uei-db/uei/internal/stream"
)

// forEachPart opens every part of the current epoch of the store under dir
// over the epoch grid and calls fn with it.
func forEachPart(t *testing.T, dir string, fn func(seg shard.SegmentMeta, g *grid.Grid, p shard.Part)) {
	t.Helper()
	m, err := shard.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	g, err := m.Grid()
	if err != nil {
		t.Fatal(err)
	}
	for _, seg := range m.Segments {
		p, err := shard.OpenPart(filepath.Join(dir, shard.SegmentDirName(seg.ID)), g, seg, m.FlushedRows, "", shard.OpenOptions{})
		if err != nil {
			t.Fatal(err)
		}
		fn(seg, g, p)
		p.Store.Close()
	}
}

// checkChunksInOneSegment fails every chunk under dir whose first and last
// values lie in different segments of the epoch grid, and returns the
// number of chunks it checked.
func checkChunksInOneSegment(t *testing.T, what, dir string) int {
	t.Helper()
	chunks := 0
	forEachPart(t, dir, func(seg shard.SegmentMeta, g *grid.Grid, p shard.Part) {
		for d, metas := range p.Store.Manifest().Chunks {
			for _, c := range metas {
				lo, err := g.SegmentOf(d, c.MinValue)
				if err != nil {
					t.Fatal(err)
				}
				hi, err := g.SegmentOf(d, c.MaxValue)
				if err != nil {
					t.Fatal(err)
				}
				if lo != hi {
					t.Errorf("%s: seg %d dim %d chunk %d holds [%g, %g], segments %d to %d", what, seg.ID, d, c.Seq, c.MinValue, c.MaxValue, lo, hi)
				}
				chunks++
			}
		}
	})
	return chunks
}

// TestChunksStayInOneSegment checks that every layout the one writer
// makes — a one-shard first epoch from a dataset and from a CSV file, an
// S = 3 one, and a live S = 2 store after flushes and after a full
// compaction — cuts each dimension's chunks at the epoch grid's segment
// boundaries: no chunk holds values of two segments.
func TestChunksStayInOneSegment(t *testing.T) {
	ds, err := dataset.GenerateSky(dataset.SkyConfig{N: 3000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "rows.csv")
	if err := dataset.WriteCSVFile(path, ds); err != nil {
		t.Fatal(err)
	}
	csv, err := dataset.OpenCSVFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		src  dataset.Source
		opts BuildOptions
	}{
		{"one shard from dataset", ds, BuildOptions{TargetChunkBytes: 2048}},
		{"one shard from csv", csv, BuildOptions{TargetChunkBytes: 2048}},
		{"S=3", ds, BuildOptions{TargetChunkBytes: 2048, Shards: 3}},
	} {
		dir := t.TempDir()
		if err := Build(dir, c.src, c.opts); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if n := checkChunksInOneSegment(t, c.name, dir); n == 0 {
			t.Errorf("%s: no chunks", c.name)
		}
	}

	dir := t.TempDir()
	if err := Build(dir, ds, BuildOptions{TargetChunkBytes: 2048, Shards: 2, LiveIngest: true}); err != nil {
		t.Fatal(err)
	}
	db, err := stream.Open(dir, stream.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ctx := context.Background()
	for f := 0; f < 3; f++ {
		rows := make([][]float64, 400)
		for i := range rows {
			rows[i] = ds.Row(dataset.RowID((f*400 + i*7) % ds.Len()))
		}
		if _, err := db.Append(rows); err != nil {
			t.Fatal(err)
		}
		if err := db.Flush(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if m, err := shard.ReadManifest(dir); err != nil {
		t.Fatal(err)
	} else if len(m.Segments) <= 2 {
		t.Fatalf("live store holds %d segments after three flushes", len(m.Segments))
	}
	checkChunksInOneSegment(t, "live S=2 after flushes", dir)
	if err := db.Compact(ctx); err != nil {
		t.Fatal(err)
	}
	if m, err := shard.ReadManifest(dir); err != nil {
		t.Fatal(err)
	} else if len(m.Segments) != 2 {
		t.Fatalf("live store holds %d segments after a full compaction, want 2", len(m.Segments))
	}
	checkChunksInOneSegment(t, "live S=2 after compaction", dir)
}

// TestMappingNamesOnlyItsSegment checks the mapping method m over aligned
// chunks: on each dimension, a cell's chunks lie inside the cell's closed
// segment interval [lo, hi], except a chunk starting at hi itself, a value
// the upper segment owns and the closed interval still touches.
func TestMappingNamesOnlyItsSegment(t *testing.T) {
	ds, err := dataset.GenerateSky(dataset.SkyConfig{N: 3000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 3} {
		dir := t.TempDir()
		if err := Build(dir, ds, BuildOptions{TargetChunkBytes: 2048, Shards: shards}); err != nil {
			t.Fatal(err)
		}
		forEachPart(t, dir, func(seg shard.SegmentMeta, g *grid.Grid, p shard.Part) {
			for id := 0; id < g.NumCells(); id++ {
				box, err := g.CellBox(grid.CellID(id))
				if err != nil {
					t.Fatal(err)
				}
				chunks, err := p.Mapping.Chunks(grid.CellID(id))
				if err != nil {
					t.Fatal(err)
				}
				for _, c := range chunks {
					lo, hi := box.Min[c.Dim], box.Max[c.Dim]
					inside := c.MinValue >= lo && c.MaxValue <= hi
					if !inside && c.MinValue != hi {
						t.Fatalf("S=%d seg %d cell %d dim %d: chunk %d holds [%g, %g], outside [%g, %g]", shards, seg.ID, id, c.Dim, c.Seq, c.MinValue, c.MaxValue, lo, hi)
					}
				}
			}
		})
	}
}
