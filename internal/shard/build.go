package shard

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"

	"github.com/uei-db/uei/internal/chunkstore"
	"github.com/uei-db/uei/internal/dataset"
	"github.com/uei-db/uei/internal/grid"
)

// BuildOptions configures Build.
type BuildOptions struct {
	// Shards is S, in [2, MaxShards]. (S = 1 is the flat on-disk layout;
	// callers route it to chunkstore.Build.)
	Shards int
	// SegmentsPerDim fixes the grid cells are hashed over. Zero selects
	// grid.DefaultSegmentsPerDim.
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
	segs := cmp.Or(opts.SegmentsPerDim, grid.DefaultSegmentsPerDim)
	target := cmp.Or(opts.TargetChunkBytes, chunkstore.DefaultTargetChunkBytes)
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
	ownerByCell, err := CellOwners(g, opts.Shards)
	if err != nil {
		return err
	}
	row := func(i int) []float64 { return ds.Row(dataset.RowID(i)) }
	idmaps, err := Partition(g, ownerByCell, opts.Shards, 0, ds.Len(), row)
	if err != nil {
		return err
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
	for s, ids := range idmaps {
		// Hash partitioning can leave a shard with no rows (small
		// datasets, unlucky cell assignment); WritePart gives it an
		// explicit empty store.
		shardRow := func(i int) []float64 { return row(int(ids[i])) }
		if _, err := WritePart(filepath.Join(dir, ShardDirName(s)), m.Columns, bounds, target, ids, shardRow); err != nil {
			return err
		}
		m.ShardRowCounts[s] = len(ids)
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
