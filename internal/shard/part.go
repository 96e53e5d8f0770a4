package shard

import (
	"fmt"
	"path/filepath"
	"sort"

	"github.com/uei-db/uei/internal/chunkstore"
	"github.com/uei-db/uei/internal/grid"
	"github.com/uei-db/uei/internal/vec"
)

// A part is the one storage unit on disk: a directory holding a chunk
// store over dense local ids plus the idmap translating them to global
// ids. The layout keeps one part per segment (seg-NNNNNN/): one per shard
// in a first epoch, more as a live store flushes.

// Part is one immutable data part of a shard: a private chunk store
// (local ids 0..n-1), the mapping of global grid cells to that store's
// chunks, and the strictly ascending local→global idmap — so local id
// order and global id order agree within a part. A nil IDMap is the
// identity: the part holds global rows 0..n-1 (an identity segment, such
// as a one-shard store's first part), so no table is held in memory or on
// disk.
type Part struct {
	Store   *chunkstore.Store
	Mapping *grid.Mapping
	IDMap   []uint32
}

// RowCount returns the part's row count.
func (p *Part) RowCount() int { return p.Store.RowCount() }

// GlobalID translates one of the part's local row ids to its global id.
func (p *Part) GlobalID(local uint32) uint32 {
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
// It returns the store's chunk payload in bytes and whether ids are
// exactly 0..n-1 for some n > 0: such an identity part gets no idmap file,
// and its segment must be marked SegmentMeta.Identity.
func WritePart(dir string, columns []string, bounds vec.Box, target int, ids []uint32, row func(i int) []float64) (bytes int64, identity bool, err error) {
	var st *chunkstore.Store
	if len(ids) == 0 {
		st, err = chunkstore.BuildEmpty(dir, columns, bounds, target)
	} else {
		st, err = chunkstore.BuildIndexed(dir, columns, len(ids), row, chunkstore.BuildOptions{TargetChunkBytes: target})
	}
	if err != nil {
		return 0, false, err
	}
	if err := st.Close(); err != nil {
		return 0, false, err
	}
	// ids ascend strictly, so its ends decide whether it is 0..n-1.
	if n := len(ids); n > 0 && ids[0] == 0 && int(ids[n-1]) == n-1 {
		return st.TotalBytes(), true, nil
	}
	return st.TotalBytes(), false, SaveIDMap(dir, ids)
}

// OpenPart opens the part of segment seg under dir for serving over g.
// layoutRows is the whole layout's row count, as the manifest records it:
// the store and the idmap must both hold seg.Rows rows, every id in the
// idmap must name a row of the layout (below layoutRows), and the store
// must have g's dimensionality. An identity segment reads no idmap (its
// part's IDMap is nil) and must not hold more rows than the layout; any
// other segment fails without its idmap file, naming it.
// Of opts only Limiter, Workers and BlockCache apply; the cache is
// installed under cacheKeyPrefix, which must be unique to the part among
// the stores sharing it (identical chunk names in different parts must not
// collide).
//
// The store holds its data files open from here until the caller, who
// owns the part, closes its Store; a part refused here is closed.
func OpenPart(dir string, g *grid.Grid, seg SegmentMeta, layoutRows int, cacheKeyPrefix string, opts OpenOptions) (_ Part, err error) {
	rows := seg.Rows
	st, err := chunkstore.Open(dir, opts.Limiter)
	if err != nil {
		return Part{}, err
	}
	defer func() {
		if err != nil {
			st.Close()
		}
	}()
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
	if seg.Identity {
		if rows > layoutRows {
			return Part{}, fmt.Errorf("identity part holds rows 0..%d, past the layout's %d rows", rows-1, layoutRows)
		}
		return Part{Store: st, Mapping: mp}, nil
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

// OpenSegments opens the parts of the segments metas names under dir for
// serving over g, in metas order; flushedRows is the epoch's row count
// (OpenPart). Each store is block-cached under its segment's directory
// name: segment ids are never reused, so a retired id cannot alias cached
// chunks. A refused part closes the parts opened before it, and the error
// names its segment.
func OpenSegments(dir string, g *grid.Grid, metas []SegmentMeta, flushedRows int, opts OpenOptions) ([]Part, error) {
	parts := make([]Part, len(metas))
	for i, meta := range metas {
		name := SegmentDirName(meta.ID)
		part, err := OpenPart(filepath.Join(dir, name), g, meta, flushedRows, name+"/", opts)
		if err != nil {
			closeParts(parts[:i])
			return nil, fmt.Errorf("segment %d: %w", meta.ID, err)
		}
		parts[i] = part
	}
	return parts, nil
}

// closeParts closes the stores of parts.
func closeParts(parts []Part) {
	for _, p := range parts {
		p.Store.Close()
	}
}

// GroupShards groups the parts of an epoch's segments — parts[i] opened
// from metas[i] — into its shards: shard s's parts in manifest order, so
// rows within a shard merge back into global-id order.
func GroupShards(shards int, metas []SegmentMeta, parts []Part) []*Shard {
	out := make([]*Shard, shards)
	for s := range out {
		out[s] = &Shard{ID: s}
	}
	for i, meta := range metas {
		sh := out[meta.Shard]
		sh.Parts = append(sh.Parts, parts[i])
	}
	return out
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
