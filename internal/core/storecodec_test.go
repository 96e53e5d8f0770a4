package core

import (
	"context"
	"math"
	"path/filepath"
	"testing"

	"github.com/uei-db/uei/internal/dataset"
	"github.com/uei-db/uei/internal/grid"
	"github.com/uei-db/uei/internal/shard"
	"github.com/uei-db/uei/internal/stream"
)

// requireStoreDecodesToRows decodes every chunk and idmap of every part of
// the store under dir and holds them to rows, the rows written, by global
// id: each part's idmap (the identity for an identity part) strictly
// ascends, the parts' ids are rows' ids each exactly once, and on every
// dimension each local row is posted exactly once, under the exact bits of
// its global row's value.
func requireStoreDecodesToRows(t *testing.T, what, dir string, rows [][]float64) {
	t.Helper()
	ctx := context.Background()
	owner := make([]int, len(rows))
	for i := range owner {
		owner[i] = -1
	}
	forEachPart(t, dir, func(seg shard.SegmentMeta, _ *grid.Grid, p shard.Part) {
		global := func(local uint32) uint32 { return local }
		if !seg.Identity {
			ids := p.IDMap // LoadIDMap's, through OpenPart
			for i, id := range ids {
				if i > 0 && id <= ids[i-1] {
					t.Fatalf("%s: seg %d: idmap %d after %d", what, seg.ID, id, ids[i-1])
				}
			}
			global = func(local uint32) uint32 { return ids[local] }
		}
		for local := 0; local < seg.Rows; local++ {
			g := global(uint32(local))
			if int(g) >= len(rows) || owner[g] != -1 {
				t.Fatalf("%s: seg %d: row %d past the %d written, or held by seg %d too", what, seg.ID, g, len(rows), owner[min(int(g), len(rows)-1)])
			}
			owner[g] = seg.ID
		}
		for d, metas := range p.Store.Manifest().Chunks {
			posted := make([]bool, seg.Rows)
			for _, m := range metas {
				entries, err := p.Store.ReadChunk(ctx, m)
				if err != nil {
					t.Fatalf("%s: seg %d: %v", what, seg.ID, err)
				}
				for _, e := range entries {
					for _, local := range e.Rows {
						want := rows[global(local)][d]
						if math.Float64bits(e.Value) != math.Float64bits(want) || posted[local] {
							t.Fatalf("%s: seg %d dim %d: local row %d posted under %v (%016x), written %v (%016x), or twice",
								what, seg.ID, d, local, e.Value, math.Float64bits(e.Value), want, math.Float64bits(want))
						}
						posted[local] = true
					}
				}
			}
			for local, ok := range posted {
				if !ok {
					t.Fatalf("%s: seg %d dim %d: local row %d posted nowhere", what, seg.ID, d, local)
				}
			}
		}
	})
	for g, seg := range owner {
		if seg == -1 {
			t.Fatalf("%s: row %d is in no part", what, g)
		}
	}
}

// TestStoresDecodeToTheBitsWritten builds stores shaped like the
// benchmark's — sky data at 64 KiB chunks, one shard and S = 4, and a live
// one-shard store after three flushes of appended rows (its flush parts
// carry contiguous ids: idmaps of gap width 0) — and requires every chunk
// and idmap to decode back to exactly the rows written.
func TestStoresDecodeToTheBitsWritten(t *testing.T) {
	ds, err := dataset.GenerateSky(dataset.SkyConfig{N: 30_000, Seed: 20210323})
	if err != nil {
		t.Fatal(err)
	}
	rows := make([][]float64, ds.Len())
	for i := range rows {
		rows[i] = ds.CopyRow(dataset.RowID(i))
	}
	for _, shards := range []int{1, 4} {
		dir := t.TempDir()
		if err := Build(dir, ds, BuildOptions{TargetChunkBytes: 64 << 10, Shards: shards}); err != nil {
			t.Fatal(err)
		}
		requireStoreDecodesToRows(t, "static", dir, rows)
	}

	dir := t.TempDir()
	if err := Build(dir, ds, BuildOptions{TargetChunkBytes: 64 << 10, LiveIngest: true}); err != nil {
		t.Fatal(err)
	}
	db, err := stream.Open(dir, stream.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for f := 0; f < 3; f++ {
		batch := make([][]float64, 2000)
		for i := range batch {
			batch[i] = ds.CopyRow(dataset.RowID((f*2000 + i*7) % ds.Len())) // inside the pinned bounds
		}
		if _, err := db.Append(batch); err != nil {
			t.Fatal(err)
		}
		if err := db.Flush(context.Background()); err != nil {
			t.Fatal(err)
		}
		rows = append(rows, batch...)
	}
	if m, err := shard.ReadManifest(dir); err != nil {
		t.Fatal(err)
	} else if len(m.Segments) != 4 {
		t.Fatalf("live store holds %d segments after three flushes, want 4", len(m.Segments))
	}
	requireStoreDecodesToRows(t, "live after flushes", dir, rows)
	forEachPart(t, dir, func(seg shard.SegmentMeta, _ *grid.Grid, p shard.Part) {
		if seg.Identity {
			return
		}
		if width, _, err := shard.IDMapWidth(filepath.Join(dir, shard.SegmentDirName(seg.ID))); err != nil || width != 0 {
			t.Errorf("flush seg %d: idmap gap width %d (%v), want 0 for appended rows", seg.ID, width, err)
		}
	})
}
