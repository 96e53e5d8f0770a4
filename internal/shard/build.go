package shard

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"

	"github.com/uei-db/uei/internal/chunkstore"
	"github.com/uei-db/uei/internal/dataset"
	"github.com/uei-db/uei/internal/grid"
)

// defaultSegmentsPerDim mirrors core's grid default (the paper's 5
// segments per dimension); Build must hash cell coordinates over the same
// grid Open will rebuild.
const defaultSegmentsPerDim = 5

// BuildOptions configures Build.
type BuildOptions struct {
	// Shards is S, in [2, MaxShards]. (S = 1 is the flat on-disk layout;
	// callers route it to chunkstore.Build.)
	Shards int
	// SegmentsPerDim fixes the grid cells are hashed over. Zero selects
	// the core default (5).
	SegmentsPerDim int
	// TargetChunkBytes is the per-shard chunk size target. Zero selects
	// chunkstore.DefaultTargetChunkBytes.
	TargetChunkBytes int
}

// OwnerOf returns the shard owning the cell with the given per-dimension
// segment coordinates: FNV-1a over the little-endian coordinates, mod S.
// Ingest and open must agree on this function byte for byte — it is the
// only thing tying a row's resting place to the coordinator's routing.
func OwnerOf(coords []int, shards int) int {
	h := fnv.New32a()
	var b [4]byte
	for _, c := range coords {
		binary.LittleEndian.PutUint32(b[:], uint32(c))
		h.Write(b[:])
	}
	return int(h.Sum32() % uint32(shards))
}

// Build partitions the dataset into S self-contained shard stores under
// dir (which must be empty or absent), assigning each row to the shard
// that owns its grid cell, and commits the layout by writing the
// top-level shards.json last. Every shard directory is a complete flat
// chunk store (possibly zero-row) plus an idmap translating its dense
// local row ids back to global ones.
func Build(dir string, ds *dataset.Dataset, opts BuildOptions) error {
	if opts.Shards < 2 || opts.Shards > MaxShards {
		return fmt.Errorf("shard: shard count %d out of range [2,%d]", opts.Shards, MaxShards)
	}
	if ds.Len() == 0 {
		return fmt.Errorf("shard: refusing to build from an empty dataset")
	}
	segs := opts.SegmentsPerDim
	if segs == 0 {
		segs = defaultSegmentsPerDim
	}
	target := opts.TargetChunkBytes
	if target == 0 {
		target = chunkstore.DefaultTargetChunkBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("shard: create %s: %w", dir, err)
	}
	if entries, err := os.ReadDir(dir); err != nil {
		return fmt.Errorf("shard: inspect %s: %w", dir, err)
	} else if len(entries) > 0 {
		return fmt.Errorf("shard: directory %s is not empty", dir)
	}

	bounds, err := ds.Bounds()
	if err != nil {
		return err
	}
	g, err := grid.New(bounds, segs)
	if err != nil {
		return err
	}

	// Partition rows by the owner of their cell. The scan runs in global
	// id order, so each shard's sub-dataset and idmap come out ascending.
	ownerByCell, err := CellOwners(g, opts.Shards)
	if err != nil {
		return err
	}
	subs := make([]*dataset.Dataset, opts.Shards)
	idmaps := make([][]uint32, opts.Shards)
	hint := ds.Len()/opts.Shards + 1
	for i := range subs {
		subs[i] = dataset.New(ds.Schema(), hint)
	}
	for i := 0; i < ds.Len(); i++ {
		row := ds.Row(dataset.RowID(i))
		cell, err := g.CellOf(row)
		if err != nil {
			return fmt.Errorf("shard: row %d: %w", i, err)
		}
		owner := ownerByCell[cell]
		if _, err := subs[owner].Append(row); err != nil {
			return fmt.Errorf("shard: row %d: %w", i, err)
		}
		idmaps[owner] = append(idmaps[owner], uint32(i))
	}

	m := &Manifest{
		FormatVersion:    manifestFormatVersion,
		Shards:           opts.Shards,
		SegmentsPerDim:   segs,
		Hash:             hashName,
		Columns:          ds.Schema().Names(),
		RowCount:         ds.Len(),
		MinValues:        append([]float64(nil), bounds.Min...),
		MaxValues:        append([]float64(nil), bounds.Max...),
		TargetChunkBytes: target,
		ShardRowCounts:   make([]int, opts.Shards),
	}
	for s := 0; s < opts.Shards; s++ {
		sdir := filepath.Join(dir, ShardDirName(s))
		if subs[s].Len() == 0 {
			// Hash partitioning can leave a shard with no rows (small
			// datasets, unlucky cell assignment). An explicit empty store
			// keeps every shard directory uniform.
			if _, err := chunkstore.BuildEmpty(sdir, m.Columns, bounds, target); err != nil {
				return err
			}
		} else {
			if _, err := chunkstore.Build(sdir, subs[s], chunkstore.BuildOptions{TargetChunkBytes: target}); err != nil {
				return err
			}
		}
		if err := SaveIDMap(sdir, idmaps[s]); err != nil {
			return err
		}
		m.ShardRowCounts[s] = subs[s].Len()
	}
	// The top-level manifest is the commit point: a crash before this
	// leaves a directory neither layout will open.
	return saveManifest(dir, m)
}

// CellOwners precomputes the owner shard of every cell of g. Exported for
// the stream subsystem, which partitions flushed memtables by the same
// assignment the coordinator routes by.
func CellOwners(g *grid.Grid, shards int) ([]int, error) {
	owners := make([]int, g.NumCells())
	for id := 0; id < g.NumCells(); id++ {
		coords, err := g.Coords(grid.CellID(id))
		if err != nil {
			return nil, err
		}
		owners[id] = OwnerOf(coords, shards)
	}
	return owners, nil
}
