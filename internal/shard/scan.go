package shard

import (
	"context"
	"fmt"
	"math"

	"github.com/uei-db/uei/internal/chunkstore"
	"github.com/uei-db/uei/internal/grid"
	"github.com/uei-db/uei/internal/kernel"
)

// RetrievedPart is one part's answer to a marked-segment scan, as columns:
// point j of Blk is the fully reconstructed row with global id IDs[j], and
// IDs ascends strictly. Both are read-only — IDs may be the part's own
// idmap.
type RetrievedPart struct {
	IDs []uint32      `json:"ids"`
	Blk *kernel.Block `json:"blk"`
}

// Check reports whether the part is safe to index: one id per block point,
// ids strictly ascending, a block of the given dimensionality whose header
// matches its backing array. Parts scanned in-process satisfy it by
// construction; a transport checks what it decoded.
func (r *RetrievedPart) Check(dims int) error {
	if r.Blk == nil {
		return fmt.Errorf("shard: retrieved part has no block")
	}
	if err := r.Blk.Check(); err != nil {
		return err
	}
	if r.Blk.Dims != dims {
		return fmt.Errorf("shard: retrieved block has %d dims, grid has %d", r.Blk.Dims, dims)
	}
	if len(r.IDs) != r.Blk.N {
		return fmt.Errorf("shard: retrieved part has %d ids for %d block points", len(r.IDs), r.Blk.N)
	}
	for i := 1; i < len(r.IDs); i++ {
		if r.IDs[i] <= r.IDs[i-1] {
			return fmt.Errorf("shard: retrieved ids not strictly ascending at %d", i)
		}
	}
	return nil
}

// ScanMarked streams one part's chunks overlapping the marked segments (one
// flag slice per dimension of g), dimension by dimension, and returns the
// rows a marked segment hit on every dimension. It is the per-store body of
// result retrieval: every layout reaches it through ScanPartsMarked (a flat
// store is one part, a live snapshot one part per segment, a uei-shardd
// worker serves local backends), so result sets are byte-identical across
// layouts and transports. entries counts the posting entries visited.
//
// The part's store numbers its rows 0..n-1, so a row is reconstructed where
// it will be read: dimension d's value of local row i goes to column d,
// index i of one n-point block, and hits[i] counts the leading dimensions
// that hit the row. There is no table, no per-row allocation and no sort —
// local order is global order within a part. The transient cost is
// n·(8·dims + 1) bytes per part, plus the one decoded chunk of the visit in
// flight: ps is valid only until the visit returns (see
// chunkstore.ReadChunksOrdered), and every value kept is copied into the
// block inside it. Rows that missed a dimension are squeezed
// out in place at the end; when none did, IDs is the part's idmap itself.
//
// chunkstore.MergeChunks (cell loads) follows the same hit-byte protocol
// and keeps its own body: a cell keeps about one row in 150 scanned, so it
// holds values for the candidates only, found through a slot per row id,
// where the dense n × dims block here is right because most rows survive.
func ScanMarked(ctx context.Context, g *grid.Grid, p *Part, marked [][]bool) (RetrievedPart, int, error) {
	dims, n := g.Dims(), p.RowCount()
	if dims > math.MaxUint8 {
		return RetrievedPart{}, 0, fmt.Errorf("shard: %d dimensions exceed the scan's one-byte hit counter", dims)
	}
	if p.IDMap != nil && len(p.IDMap) != n {
		return RetrievedPart{}, 0, fmt.Errorf("shard: idmap has %d entries, store has %d rows", len(p.IDMap), n)
	}
	if len(marked) != dims {
		return RetrievedPart{}, 0, fmt.Errorf("shard: %d marked dimensions, grid has %d", len(marked), dims)
	}
	blk := kernel.NewBlock(n, dims)
	hits := make([]uint8, n)
	entries := 0
	for d := 0; d < dims; d++ {
		metas, all, err := markedChunks(g, p.Store, d, marked[d])
		if err != nil {
			return RetrievedPart{}, 0, err
		}
		mk, col, seen := marked[d], blk.Col(d), uint8(d)
		lo, hi := g.Bounds().Min[d], g.Bounds().Max[d]
		err = p.Store.ReadChunksOrdered(ctx, metas, func(_ chunkstore.ChunkMeta, ps chunkstore.Postings) error {
			entries += len(ps.Values)
			start := uint32(0)
			for i, v := range ps.Values {
				ids := ps.Rows[start:ps.Ends[i]]
				start = ps.Ends[i]
				if all {
					// Every segment is marked, so which one holds the value
					// cannot matter; a value outside the domain, NaN included,
					// still fails as SegmentOf fails it.
					if !(v >= lo && v <= hi) {
						if _, err := g.SegmentOf(d, v); err != nil {
							return err
						}
					}
				} else {
					seg, err := g.SegmentOf(d, v)
					if err != nil {
						return err
					}
					if !mk[seg] {
						continue
					}
				}
				for _, id := range ids {
					if int(id) >= n {
						return fmt.Errorf("shard: row %d out of range [0,%d)", id, n)
					}
					// A row that missed an earlier dimension stays behind for
					// good; one posted twice on this dimension counts once.
					if hits[id] == seen {
						col[id] = v
						hits[id]++
					}
				}
			}
			return nil
		})
		if err != nil {
			return RetrievedPart{}, 0, err
		}
	}

	full, kept := uint8(dims), 0
	for _, h := range hits {
		if h == full {
			kept++
		}
	}
	if kept == n && p.IDMap != nil {
		return RetrievedPart{IDs: p.IDMap, Blk: blk}, entries, nil
	}
	ids := make([]uint32, 0, kept)
	for i, h := range hits {
		if h == full {
			ids = append(ids, uint32(i))
		}
	}
	if kept < n {
		blk.Keep(ids)
	}
	if p.IDMap != nil {
		for j, local := range ids {
			ids[j] = p.IDMap[local]
		}
	}
	return RetrievedPart{IDs: ids, Blk: blk}, entries, nil
}

// markedChunks lists dimension d's chunks overlapping a marked segment, in
// sequence order, each once, and reports whether every segment is marked.
func markedChunks(g *grid.Grid, st *chunkstore.Store, d int, marked []bool) (metas []chunkstore.ChunkMeta, all bool, err error) {
	if want := g.Segments()[d]; len(marked) != want {
		return nil, false, fmt.Errorf("shard: %d segment flags on dimension %d, grid has %d", len(marked), d, want)
	}
	all = true
	for seg, on := range marked {
		if !on {
			all = false
			continue
		}
		lo, hi, err := g.SegmentInterval(d, seg)
		if err != nil {
			return nil, false, err
		}
		chunks, err := st.ChunksOverlapping(d, lo, hi)
		if err != nil {
			return nil, false, err
		}
		// Segments ascend and so do a dimension's chunks: a chunk that
		// straddles two marked segments comes back twice, adjacently.
		for _, c := range chunks {
			if len(metas) == 0 || c.Seq > metas[len(metas)-1].Seq {
				metas = append(metas, c)
			}
		}
	}
	return metas, all, nil
}
