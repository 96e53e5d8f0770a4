package shard

import (
	"context"
	"sort"

	"github.com/uei-db/uei/internal/chunkstore"
	"github.com/uei-db/uei/internal/grid"
)

// ScanMarked streams one store's chunks overlapping the marked segments
// (one flag slice per dimension of g), dimension by dimension, and returns
// the rows a marked segment hit on every dimension, keyed by the store's
// own row ids, ascending. It is the per-store body of result retrieval:
// every layout reaches it through ScanPartsMarked (a flat store is one
// part, a live snapshot one part per segment, a uei-shardd worker serves
// local backends), so result sets are byte-identical across layouts and
// transports. entries counts the posting entries visited.
func ScanMarked(ctx context.Context, g *grid.Grid, st *chunkstore.Store, markedSeg [][]bool) (rows []RetrievedRow, entries int, err error) {
	dims := g.Dims()
	type partial struct {
		vals []float64
		hits int
	}
	table := make(map[uint32]*partial)
	for d := 0; d < dims; d++ {
		chunkSet := make(map[int]chunkstore.ChunkMeta)
		for seg, marked := range markedSeg[d] {
			if !marked {
				continue
			}
			lo, hi, err := g.SegmentInterval(d, seg)
			if err != nil {
				return nil, 0, err
			}
			chunks, err := st.ChunksOverlapping(d, lo, hi)
			if err != nil {
				return nil, 0, err
			}
			for _, c := range chunks {
				chunkSet[c.Seq] = c
			}
		}
		order := make([]int, 0, len(chunkSet))
		for seq := range chunkSet {
			order = append(order, seq)
		}
		sort.Ints(order)
		metas := make([]chunkstore.ChunkMeta, len(order))
		for i, seq := range order {
			metas[i] = chunkSet[seq]
		}
		dd := d
		err := st.ReadChunksOrdered(ctx, metas, func(_ chunkstore.ChunkMeta, es []chunkstore.Entry) error {
			for _, e := range es {
				entries++
				seg, err := g.SegmentOf(dd, e.Value)
				if err != nil {
					return err
				}
				if !markedSeg[dd][seg] {
					continue
				}
				for _, id := range e.Rows {
					p := table[id]
					if p == nil {
						if dd > 0 {
							continue // already failed an earlier dimension
						}
						p = &partial{vals: make([]float64, dims)}
						table[id] = p
					}
					if p.hits != dd {
						continue
					}
					p.vals[dd] = e.Value
					p.hits++
				}
			}
			return nil
		})
		if err != nil {
			return nil, 0, err
		}
		for id, p := range table {
			if p.hits != d+1 {
				delete(table, id)
			}
		}
	}
	rows = make([]RetrievedRow, 0, len(table))
	for id, p := range table {
		rows = append(rows, RetrievedRow{ID: id, Vals: p.vals})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].ID < rows[j].ID })
	return rows, entries, nil
}
