package shard

import (
	"context"
	"fmt"
	"math"
	"slices"

	"github.com/uei-db/uei/internal/chunkstore"
	"github.com/uei-db/uei/internal/grid"
	"github.com/uei-db/uei/internal/kernel"
)

// RetrievedPart is one part's answer to a marked-segment scan, as columns:
// point j of Blk is the fully reconstructed row with global id IDs[j], and
// IDs ascends strictly. Both are read-only — IDs may be the part's own
// idmap.
type RetrievedPart struct {
	IDs []uint32
	Blk *kernel.Block
}

// Check reports whether the part is safe to index: one id per block point,
// ids strictly ascending, a block of the given dimensionality whose header
// matches its backing array. Parts ScanMarked returns satisfy it by
// construction.
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

// ScanScratch is the memory a scan reconstructs one part into: the block's
// backing array, the hit bytes and the id buffer, each grown to the part
// being scanned and never shrunk. Scanning the parts of a store one at a
// time through one scratch therefore holds (8·dims + 1 + 4) bytes per row of
// the largest part, not of the store. The part a scan returns lives in the
// scratch (unless its IDs are the part's idmap): it is valid only until the
// next scan through the same scratch. A scratch serves one scan at a time.
type ScanScratch struct {
	data []float64
	hits []uint8
	ids  []uint32
	blk  kernel.Block
}

// resize returns s with length n, reusing its backing array when it is
// large enough. The contents are not preserved or cleared.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// ScanMarked streams one part's chunks overlapping the marked segments (one
// flag slice per dimension of g), dimension by dimension, and returns the
// rows a marked segment hit on every dimension. It is the per-store body of
// result retrieval: every store reaches it (a one-shard store is one part,
// a live snapshot one part per segment), so result sets are byte-identical
// across layouts. entries counts the posting entries visited.
//
// The part's store numbers its rows 0..n-1, so a row is reconstructed where
// it will be read: dimension d's value of local row i goes to column d,
// index i of one n-point block, and hits[i] counts the leading dimensions
// that hit the row. There is no table, no per-row allocation and no sort —
// local order is global order within a part. The transient cost is
// n·(8·dims + 1) bytes per part, plus the one decoded chunk the read
// holds: ps is valid only until the visit returns (see
// chunkstore.ReadChunksOrdered), and every value kept is copied into the
// block inside it. Rows that missed a dimension are squeezed out in place
// at the end; when none did, IDs is the part's idmap itself.
//
// sc, when non-nil, is the memory the part is reconstructed into (see
// ScanScratch); the result is then valid only until sc's next scan. A nil
// sc allocates the part's own.
//
// A chunk whose values each post one row, and whose first and last values
// lie in marked segments, is taken whole: its values strictly ascend (the
// decoder refuses any chunk that does not, NaN included) and SegmentOf is
// monotone, so every value between lies in a marked segment too. Every
// other chunk is tested value by value.
//
// chunkstore.MergeChunks (cell loads) keeps its own body over the same
// dense ids: a cell keeps about one row in 150 scanned, so it tracks the
// rows still standing in bitsets and holds per-dimension (id, value) lists
// until the survivors are known, where the dense n × dims block and hit
// bytes here are right because most rows survive. Both refuse the
// dimensionality a one-byte hit counter cannot count.
func ScanMarked(ctx context.Context, g *grid.Grid, p *Part, marked [][]bool, sc *ScanScratch) (RetrievedPart, int, error) {
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
	if sc == nil {
		sc = new(ScanScratch)
	}
	// The block is rebuilt over the scratch's whole array: a Keep of the
	// previous scan resliced only the block's view of it.
	stride := kernel.StrideFor(n)
	sc.data = resize(sc.data, dims*stride)
	sc.blk = kernel.Block{N: n, Dims: dims, Stride: stride, Data: sc.data}
	blk := &sc.blk
	hits := resize(sc.hits, n)
	sc.hits = hits
	clear(hits)
	entries := 0
	for d := 0; d < dims; d++ {
		metas, all, err := markedChunks(g, p.Store, d, marked[d])
		if err != nil {
			return RetrievedPart{}, 0, err
		}
		mk, col, seen := marked[d], blk.Col(d), uint8(d)
		lo, hi := g.Bounds().Min[d], g.Bounds().Max[d]
		// wholeChunk reports whether every value of a chunk whose values
		// run from first to last lies in a marked segment.
		wholeChunk := func(first, last float64) bool {
			if all {
				return first >= lo && last <= hi
			}
			s0, err0 := g.SegmentOf(d, first)
			s1, err1 := g.SegmentOf(d, last)
			return err0 == nil && err1 == nil && !slices.Contains(mk[s0:s1+1], false)
		}
		err = p.Store.ReadChunksOrdered(ctx, metas, func(_ chunkstore.ChunkMeta, ps chunkstore.Postings) error {
			entries += len(ps.Values)
			if len(ps.Rows) == len(ps.Values) && len(ps.Values) > 0 && wholeChunk(ps.Values[0], ps.Values[len(ps.Values)-1]) {
				// Every count is at least one, so value i posts row i.
				for i, id := range ps.Rows {
					if int(id) >= n {
						return fmt.Errorf("shard: row %d out of range [0,%d)", id, n)
					}
					if hits[id] == seen {
						col[id] = ps.Values[i]
						hits[id]++
					}
				}
				return nil
			}
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
	if kept == n {
		// Every row wrote every column; only the padding past n may hold
		// an earlier scan's values, and kernel.Block promises zeros there.
		for d := 0; d < dims; d++ {
			clear(blk.Data[d*stride+n : (d+1)*stride])
		}
		if p.IDMap != nil {
			return RetrievedPart{IDs: p.IDMap, Blk: blk}, entries, nil
		}
	}
	ids := resize(sc.ids, kept)[:0]
	sc.ids = ids
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
