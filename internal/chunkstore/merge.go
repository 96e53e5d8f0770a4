package chunkstore

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"

	"github.com/uei-db/uei/internal/vec"
)

// MergedRow is one reconstructed tuple.
type MergedRow struct {
	ID   uint32
	Vals []float64
}

// CompareRowID orders reconstructed tuples by row id, for slices.SortFunc.
// Ids are unique within any one result, so the sorted order is unique too.
func CompareRowID(a, b MergedRow) int { return cmp.Compare(a.ID, b.ID) }

// partial accumulates a tuple during the hash merge. hits counts how many
// dimensions have landed a value; a row is complete only when hits equals
// the dimensionality (i.e. the row's value lies inside the box on every
// dimension).
type partial struct {
	vals []float64
	hits int
}

// MergeRegion reconstructs every tuple whose coordinates all fall inside
// box, by streaming the overlapping chunks of each dimension through a
// row-id hash table exactly as §3.1 describes: one chunk in memory at a
// time, entries visited sequentially, the chunk buffer released before the
// next chunk is loaded. Rows that match some but not all dimensions are
// discarded at the end.
//
// The returned rows are sorted by id for determinism. MergeRegion also
// reports how many posting entries were visited (the paper's e term) so
// callers can verify the O(k·e) claim.
func (s *Store) MergeRegion(ctx context.Context, box vec.Box) (rows []MergedRow, entriesVisited int, err error) {
	dims := s.Dims()
	if box.Dims() != dims {
		return nil, 0, fmt.Errorf("chunkstore: box has %d dims, store has %d", box.Dims(), dims)
	}
	var chunks []ChunkMeta
	for d := 0; d < dims; d++ {
		overlap, err := s.ChunksOverlapping(d, box.Min[d], box.Max[d])
		if err != nil {
			return nil, 0, err
		}
		chunks = append(chunks, overlap...)
	}
	return s.MergeChunks(ctx, box, chunks)
}

// MergeChunks is MergeRegion with an explicit chunk list, letting UEI's
// precomputed mapping method m supply the chunks instead of re-deriving
// them from the manifest. The chunk list must cover (possibly with slack)
// every chunk whose value range intersects the box on its own dimension;
// extra chunks cost I/O but not correctness.
//
// Chunk reads fan out concurrently (bounded by SetWorkers) through the
// ordered read pipeline, overlapping I/O and decode with the hash-table
// merge; entries are still applied strictly in chunk order, so the merged
// rows are identical to the sequential path.
func (s *Store) MergeChunks(ctx context.Context, box vec.Box, chunks []ChunkMeta) (rows []MergedRow, entriesVisited int, err error) {
	dims := s.Dims()
	if box.Dims() != dims {
		return nil, 0, fmt.Errorf("chunkstore: box has %d dims, store has %d", box.Dims(), dims)
	}
	byDim := make([][]ChunkMeta, dims)
	for _, c := range chunks {
		if c.Dim < 0 || c.Dim >= dims {
			return nil, 0, fmt.Errorf("chunkstore: chunk %s has dimension %d out of range", c.File, c.Dim)
		}
		byDim[c.Dim] = append(byDim[c.Dim], c)
	}

	table := make(map[uint32]*partial)
	for d := 0; d < dims; d++ {
		lo, hi := box.Min[d], box.Max[d]
		dd := d
		err := s.ReadChunksOrdered(ctx, byDim[d], func(_ ChunkMeta, entries []Entry) error {
			for _, e := range entries {
				entriesVisited++
				if e.Value < lo {
					continue
				}
				if e.Value > hi {
					break // entries are sorted; nothing further matches
				}
				for _, id := range e.Rows {
					p := table[id]
					if p == nil {
						if dd > 0 {
							// The row already failed an earlier dimension;
							// creating it now could only produce a false
							// positive with NaN holes, so skip it.
							continue
						}
						p = &partial{vals: newNaNRow(dims)}
						table[id] = p
					}
					if p.hits != dd {
						// Missed at least one earlier dimension.
						continue
					}
					p.vals[dd] = e.Value
					p.hits++
				}
			}
			// entries goes out of scope here: the decoded chunk buffer is
			// released (or, with a block cache installed, stays resident
			// for other readers) and its pipeline slot reused.
			return nil
		})
		if err != nil {
			return nil, 0, err
		}
		// Drop rows that did not land a value in this dimension; they can
		// never complete, and pruning keeps the table within the region's
		// working set rather than the first dimension's slab.
		for id, p := range table {
			if p.hits != d+1 {
				delete(table, id)
			}
		}
	}

	rows = make([]MergedRow, 0, len(table))
	for id, p := range table {
		if p.hits == dims {
			rows = append(rows, MergedRow{ID: id, Vals: p.vals})
		}
	}
	slices.SortFunc(rows, CompareRowID)
	return rows, entriesVisited, nil
}

// FetchRows reconstructs the tuples with the given ids by streaming every
// chunk once (a single full pass over the store). It backs the
// initialization-time uniform sample of Algorithm 2 line 12; per-iteration
// code never calls it.
func (s *Store) FetchRows(ctx context.Context, ids []uint32) ([]MergedRow, error) {
	if len(ids) == 0 {
		return nil, nil
	}
	dims := s.Dims()
	want := make(map[uint32]*partial, len(ids))
	for _, id := range ids {
		if int(id) >= s.RowCount() {
			return nil, fmt.Errorf("chunkstore: row %d out of range [0,%d)", id, s.RowCount())
		}
		want[id] = &partial{vals: newNaNRow(dims)}
	}
	for d := 0; d < dims; d++ {
		dd := d
		err := s.ReadChunksOrdered(ctx, s.manifest.Chunks[d], func(_ ChunkMeta, entries []Entry) error {
			for _, e := range entries {
				for _, id := range e.Rows {
					if p, ok := want[id]; ok {
						p.vals[dd] = e.Value
						p.hits++
					}
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	out := make([]MergedRow, 0, len(want))
	for id, p := range want {
		if p.hits != dims {
			return nil, fmt.Errorf("chunkstore: row %d incomplete after full pass (%d/%d dims); store is inconsistent", id, p.hits, dims)
		}
		out = append(out, MergedRow{ID: id, Vals: p.vals})
	}
	slices.SortFunc(out, CompareRowID)
	return out, nil
}

func newNaNRow(dims int) []float64 {
	vals := make([]float64, dims)
	for i := range vals {
		vals[i] = math.NaN()
	}
	return vals
}
