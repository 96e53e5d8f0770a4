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

// IDRows yields an ascending stream of (global id, row) pairs and
// ok=false after the last; the writer copies what it keeps of a row.
type IDRows func() (id uint32, row []float64, ok bool, err error)

// WriteSegment is the one writer of a part: every first epoch, live flush
// and compaction calls it. It streams the n rows of rows (n < 0: not known
// until they end) into chunkstore.BuildRows under the next segment of
// shard s, local ids in stream order, and records the segment in m. The
// global ids become the part's idmap, unless they run 0..n-1: such an
// identity part has no idmap file, and its segment is marked Identity.
// Zero rows write an explicit empty store over m's bounds, so every part
// directory is uniform. It returns the bounds of the rows written.
//
// Each dimension's chunks are cut at the segment boundaries of the epoch
// grid (m.Grid), so a cell load reads its own segment's chunks. A one-shard
// first epoch, whose bounds are not pinned yet, is cut on the grid over the
// bounds its own rows pin.
func (m *Manifest) WriteSegment(dir string, s int, rows IDRows, n int) (vec.Box, error) {
	seg := SegmentMeta{ID: m.NextSegmentID, Shard: s}
	part := filepath.Join(dir, SegmentDirName(seg.ID))
	var ids []uint32 // nil while the ids run 0, 1, ...
	var st *chunkstore.Store
	var err error
	if n == 0 {
		st, err = chunkstore.BuildEmpty(part, m.Columns, vec.NewBox(m.MinValues, m.MaxValues), m.TargetChunkBytes)
	} else {
		written := 0
		st, err = chunkstore.BuildRows(part, m.Columns, func() ([]float64, bool, error) {
			id, row, ok, err := rows()
			if !ok || err != nil {
				return nil, false, err
			}
			if ids == nil && id != uint32(written) {
				ids = make([]uint32, written, max(written+1, n))
				for i := range ids {
					ids[i] = uint32(i)
				}
			}
			if ids != nil {
				if written > 0 && id <= ids[written-1] {
					return nil, false, fmt.Errorf("shard: segment row id %d after %d", id, ids[written-1])
				}
				ids = append(ids, id)
			}
			written++
			return row, true, nil
		}, max(n, 0), m.segments, chunkstore.BuildOptions{TargetChunkBytes: m.TargetChunkBytes})
	}
	if err != nil {
		return vec.Box{}, err
	}
	if err := st.Close(); err != nil {
		return vec.Box{}, err
	}
	seg.Rows, seg.Bytes = st.RowCount(), st.TotalBytes()
	if seg.Identity = ids == nil && seg.Rows > 0; !seg.Identity {
		if err := SaveIDMap(part, ids); err != nil {
			return vec.Box{}, err
		}
	}
	m.Segments = append(m.Segments, seg)
	m.NextSegmentID++
	return st.Bounds(), nil
}

// segments returns the segment function of the epoch grid: over m's
// bounds, or over min/max, the bounds of the rows being written, when m
// has none yet. Rows whose bounds no grid of m's segment count can cut (a
// dimension holding one value) get none, and their chunks are cut by size
// alone: such a store opens only over one segment per dimension.
func (m *Manifest) segments(min, max []float64) chunkstore.SegmentFunc {
	if m.MinValues != nil {
		min, max = m.MinValues, m.MaxValues
	}
	g, err := grid.New(vec.NewBox(min, max), m.SegmentsPerDim)
	if err != nil {
		return nil
	}
	return g.SegmentOf
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
