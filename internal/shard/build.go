package shard

import (
	"encoding/binary"
	"hash/fnv"

	"github.com/uei-db/uei/internal/dataset"
	"github.com/uei-db/uei/internal/grid"
)

// BuildOptions configures Build and WriteFirstEpoch.
type BuildOptions struct {
	// Shards is S, in [1, MaxShards]; 0 means 1. One shard is one part
	// over every row, with no idmap.
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

// Build writes a store of S shards under dir (which must be empty or
// absent): epoch 1 of the layout, one segment per shard holding the rows of
// the cells the shard owns, committed by CURRENT. It writes no wal/
// directory, so the store is static: every open reads it and none writes
// to it.
func Build(dir string, ds *dataset.Dataset, opts BuildOptions) error {
	m, err := WriteFirstEpoch(dir, ds, opts)
	if err != nil {
		return err
	}
	return CommitManifest(dir, m)
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
