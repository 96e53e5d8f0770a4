package shard

import (
	"fmt"
	"sort"

	"github.com/uei-db/uei/internal/chunkstore"
	"github.com/uei-db/uei/internal/grid"
	"github.com/uei-db/uei/internal/vec"
)

// A part is the one storage unit on disk: a directory holding a flat chunk
// store over dense local ids plus the idmap translating them to global
// ids. The sharded layout keeps one part per shard (shard-NNN/), the live
// layout one per flushed segment (seg-NNNNNN/); both write, partition and
// open their parts through the functions below, so a shard and a segment
// over the same rows are the same bytes.

// Part is one immutable data part of a shard: a private flat chunk store
// (local ids 0..n-1), the mapping of global grid cells to that store's
// chunks, and the strictly ascending local→global idmap — so local id
// order and global id order agree within a part. A nil IDMap is the
// identity: the part's local ids are the global ids (a flat store opened
// as the only part of the only shard), so no table is held in memory.
type Part struct {
	Store   *chunkstore.Store
	Mapping *grid.Mapping
	IDMap   []uint32
}

// RowCount returns the part's row count.
func (p *Part) RowCount() int { return p.Store.RowCount() }

// globalID translates one of the part's local row ids to its global id.
func (p *Part) globalID(local uint32) uint32 {
	if p.IDMap == nil {
		return local
	}
	return p.IDMap[local]
}

// localIDs returns the local ids (positions in the idmap) of the global
// ids this part holds. Each id is binary-searched in the idmap past the
// previous match, so a fetch of k ids costs O(k log(rows)), not a walk of
// the whole idmap. globalIDs must be ascending; so is the result.
func (p *Part) localIDs(globalIDs []uint32) []uint32 {
	if p.IDMap == nil {
		n := uint32(p.RowCount())
		return globalIDs[:sort.Search(len(globalIDs), func(i int) bool { return globalIDs[i] >= n })]
	}
	var local []uint32
	li := 0
	for _, g := range globalIDs {
		rest := p.IDMap[li:]
		li += sort.Search(len(rest), func(i int) bool { return rest[i] >= g })
		if li == len(p.IDMap) {
			break
		}
		if p.IDMap[li] == g {
			local = append(local, uint32(li))
			li++
		}
	}
	return local
}

// WritePart writes the part holding the rows ids names under dir: row(i)
// returns the values of row ids[i], and ids must ascend strictly. Zero
// rows write an explicit empty store, so every part directory is uniform.
// It returns the store's chunk payload in bytes.
func WritePart(dir string, columns []string, bounds vec.Box, target int, ids []uint32, row func(i int) []float64) (int64, error) {
	var st *chunkstore.Store
	var err error
	if len(ids) == 0 {
		st, err = chunkstore.BuildEmpty(dir, columns, bounds, target)
	} else {
		st, err = chunkstore.BuildIndexed(dir, columns, len(ids), row, chunkstore.BuildOptions{TargetChunkBytes: target})
	}
	if err != nil {
		return 0, err
	}
	return st.TotalBytes(), SaveIDMap(dir, ids)
}

// OpenPart opens the part under dir for serving over g. rows is the part's
// row count and layoutRows the whole layout's, as its manifest records
// them: the store and the idmap must both hold rows rows, every id in the
// idmap must name a row of the layout (below layoutRows), and the store
// must have g's dimensionality.
// Of opts only Limiter, Workers and BlockCache apply; the cache is
// installed under cacheKeyPrefix, which must be unique to the part among
// the stores sharing it (identical chunk file names in different parts
// must not collide).
//
// The store opens chunk files as it reads them and holds them until the
// caller, who owns the part, closes its Store.
func OpenPart(dir string, g *grid.Grid, rows, layoutRows int, cacheKeyPrefix string, opts OpenOptions) (Part, error) {
	st, err := chunkstore.Open(dir, opts.Limiter)
	if err != nil {
		return Part{}, err
	}
	if st.RowCount() != rows {
		return Part{}, fmt.Errorf("store has %d rows, manifest says %d", st.RowCount(), rows)
	}
	if st.Dims() != g.Dims() {
		return Part{}, fmt.Errorf("store has %d dims, manifest says %d", st.Dims(), g.Dims())
	}
	st.SetWorkers(opts.Workers)
	if opts.BlockCache != nil {
		st.SetCacheKeyPrefix(cacheKeyPrefix)
		st.SetBlockCache(opts.BlockCache)
	}
	mp, err := grid.BuildMapping(g, st)
	if err != nil {
		return Part{}, err
	}
	ids, err := LoadIDMap(dir)
	if err != nil {
		return Part{}, err
	}
	if len(ids) != rows {
		return Part{}, fmt.Errorf("idmap has %d entries, store has %d rows", len(ids), rows)
	}
	// The idmap ascends strictly, so its last id bounds them all.
	if rows > 0 && int(ids[rows-1]) >= layoutRows {
		return Part{}, fmt.Errorf("idmap names row %d, past the layout's %d rows", ids[rows-1], layoutRows)
	}
	return Part{Store: st, Mapping: mp, IDMap: ids}, nil
}

// Partition assigns n rows with global ids firstID, firstID+1, ... to the
// shards owning their grid cells and returns each shard's ids, ascending.
// row(i) returns the values of row firstID+i and owners is CellOwners(g,
// shards). With one shard every row is shard 0's and no cell is computed.
func Partition(g *grid.Grid, owners []int, shards int, firstID uint32, n int, row func(i int) []float64) ([][]uint32, error) {
	ids := make([][]uint32, shards)
	if shards == 1 {
		ids[0] = make([]uint32, n)
		for i := range ids[0] {
			ids[0][i] = firstID + uint32(i)
		}
		return ids, nil
	}
	// Count first, so each shard's slice is sized once.
	owner := make([]int32, n)
	counts := make([]int, shards)
	for i := range owner {
		cell, err := g.CellOf(row(i))
		if err != nil {
			return nil, fmt.Errorf("shard: row %d: %w", int(firstID)+i, err)
		}
		s := owners[cell]
		owner[i] = int32(s)
		counts[s]++
	}
	for s, c := range counts {
		ids[s] = make([]uint32, 0, c)
	}
	for i, s := range owner {
		ids[s] = append(ids[s], firstID+uint32(i))
	}
	return ids, nil
}
