package chunkstore

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"sort"

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

// scratch is the row-id table of one reconstruction. A store numbers its
// rows 0..n-1, so two arrays indexed by row id are §3.1's hash table
// without hashing: hits[id] is zero for a row that is not a candidate and
// otherwise counts what has landed on it, slot[id] (read only where
// hits[id] != 0) is the candidate's position in cand. Every id with a
// non-zero hit byte is in cand, so walking cand resets the table — never
// an O(n) clear — and a pooled scratch is all zeroes between calls.
// shard.ScanMarked follows the same hit-byte protocol over a dense
// n × dims block, which is right when most rows survive; the slot
// indirection here is right when a cell keeps one row in ≈ 150 scanned.
type scratch struct {
	hits []uint8
	slot []int32
	cand []uint32
	cols [][]float64 // MergeChunks: cols[d][slot[id]] is candidate id's value on dimension d
}

// acquireScratch takes a zeroed scratch from the store's pool (5 bytes per
// store row for each concurrent reconstruction, outside memcache.Budget).
// maxHit is the largest value a hit byte must hold.
func (s *Store) acquireScratch(maxHit int) (*scratch, error) {
	if maxHit > math.MaxUint8 {
		return nil, fmt.Errorf("chunkstore: %d dimensions exceed the reconstruction's one-byte hit counter", s.Dims())
	}
	if sc, ok := s.scratch.Get().(*scratch); ok {
		return sc, nil
	}
	n := s.RowCount()
	return &scratch{hits: make([]uint8, n), slot: make([]int32, n)}, nil
}

// releaseScratch zeroes the hit bytes still set and pools the scratch. It
// runs deferred, so a cancelled context or a corrupt chunk in the middle
// of a dimension leaves the table as clean as a completed call does.
func (s *Store) releaseScratch(sc *scratch) {
	for _, id := range sc.cand {
		sc.hits[id] = 0
	}
	sc.cand = sc.cand[:0]
	s.scratch.Put(sc)
}

// squeeze drops the candidates that have not landed `landed` dimensions,
// clearing their hit bytes, and closes the gaps they leave.
func (sc *scratch) squeeze(landed int) {
	k := 0
	for i, id := range sc.cand {
		if sc.hits[id] != uint8(landed) {
			sc.hits[id] = 0
			continue
		}
		if k != i {
			sc.cand[k], sc.slot[id] = id, int32(k)
			for _, col := range sc.cols[:landed] {
				col[k] = col[i]
			}
		}
		k++
	}
	sc.cand = sc.cand[:k]
}

func errRowRange(id uint32, n int) error {
	return fmt.Errorf("chunkstore: row %d out of range [0,%d)", id, n)
}

// MergeRegion reconstructs every tuple whose coordinates all fall inside
// box, by streaming the overlapping chunks of each dimension through the
// row-id table as §3.1 describes: one chunk in memory at a time, entries
// visited sequentially, the chunk buffer released before the next chunk is
// loaded. A row materialises only if every dimension hits it.
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
// Dimension 0's in-box postings open the candidates; each later dimension
// writes a value only on a candidate that landed every dimension before
// it, and those it missed are squeezed out before the next, so the work
// after dimension 0 follows the shrinking intersection rather than the
// slabs. The survivors' values are copied into one array the returned
// rows alias.
//
// Chunk reads fan out concurrently (bounded by SetWorkers) through the
// ordered read pipeline, overlapping I/O and decode with the merge;
// entries are still applied strictly in chunk order, so the merged rows
// are identical to the sequential path.
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
	sc, err := s.acquireScratch(dims)
	if err != nil {
		return nil, 0, err
	}
	defer s.releaseScratch(sc)

	hits, slot, n := sc.hits, sc.slot, len(sc.hits)
	if sc.cols == nil {
		sc.cols = make([][]float64, dims)
	}
	for d := 0; d < dims; d++ {
		lo, hi, seen := box.Min[d], box.Max[d], uint8(d)
		// Dimension 0 appends a value per candidate it opens; a later one
		// has a place for every candidate still standing.
		col := slices.Grow(sc.cols[d][:0], len(sc.cand))[:len(sc.cand)]
		err := s.ReadChunksOrdered(ctx, byDim[d], func(_ ChunkMeta, p Postings) error {
			// Values ascend strictly, so the postings below the box are a
			// prefix, skipped by one search but still counted in e.
			first := sort.SearchFloat64s(p.Values, lo)
			entriesVisited += first
			start := uint32(0)
			if first > 0 {
				start = p.Ends[first-1]
			}
			for i := first; i < len(p.Values); i++ {
				v := p.Values[i]
				ids := p.Rows[start:p.Ends[i]]
				start = p.Ends[i]
				entriesVisited++
				if v > hi {
					break // values are sorted; nothing further matches
				}
				for _, id := range ids {
					if int(id) >= n {
						return errRowRange(id, n)
					}
					// Anything else is not a candidate, missed an earlier
					// dimension, or was already posted on this one.
					if hits[id] != seen {
						continue
					}
					if seen == 0 {
						slot[id] = int32(len(sc.cand))
						sc.cand = append(sc.cand, id)
						col = append(col, v)
					} else {
						col[slot[id]] = v
					}
					hits[id]++
				}
			}
			// p goes out of scope here, and with it the contract of
			// ReadChunksOrdered ends: the next chunk is decoded over this
			// one's arrays (or, with a block cache installed, the chunk
			// stays resident for other readers). Everything kept was copied
			// into col above.
			return nil
		})
		if err != nil {
			return nil, 0, err
		}
		sc.cols[d] = col
		sc.squeeze(d + 1)
	}

	// Candidates were opened in dimension 0's value order; the result is
	// in id order.
	slices.Sort(sc.cand)
	rows = make([]MergedRow, len(sc.cand))
	out := make([]float64, len(sc.cand)*dims)
	for k, id := range sc.cand {
		rows[k] = MergedRow{ID: id, Vals: out[k*dims : (k+1)*dims : (k+1)*dims]}
		for d, col := range sc.cols {
			rows[k].Vals[d] = col[slot[id]]
		}
	}
	return rows, entriesVisited, nil
}

// FetchRows reconstructs the tuples with the given ids by streaming every
// chunk once (a single full pass over the store). It backs the
// initialization-time uniform sample of Algorithm 2 line 12; per-iteration
// code never calls it. The wanted ids are marked in the same row-id table
// MergeChunks uses (hit byte 1 = wanted, nothing landed yet), and each
// posting that finds its row marked writes straight into the result.
func (s *Store) FetchRows(ctx context.Context, ids []uint32) ([]MergedRow, error) {
	if len(ids) == 0 {
		return nil, nil
	}
	dims := s.Dims()
	sc, err := s.acquireScratch(dims + 1)
	if err != nil {
		return nil, err
	}
	defer s.releaseScratch(sc)

	hits, slot, n := sc.hits, sc.slot, len(sc.hits)
	for _, id := range ids {
		if int(id) >= n {
			return nil, errRowRange(id, n)
		}
		if hits[id] == 0 {
			hits[id] = 1
			sc.cand = append(sc.cand, id)
		}
	}
	slices.Sort(sc.cand)
	for k, id := range sc.cand {
		slot[id] = int32(k)
	}
	vals := make([]float64, len(sc.cand)*dims)
	for d := 0; d < dims; d++ {
		want := uint8(d + 1)
		err := s.ReadChunksOrdered(ctx, s.manifest.Chunks[d], func(_ ChunkMeta, p Postings) error {
			start := uint32(0)
			for i, v := range p.Values {
				for _, id := range p.Rows[start:p.Ends[i]] {
					if int(id) >= n {
						return errRowRange(id, n)
					}
					if hits[id] == want {
						vals[int(slot[id])*dims+d] = v
						hits[id]++
					}
				}
				start = p.Ends[i]
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	out := make([]MergedRow, len(sc.cand))
	for k, id := range sc.cand {
		if landed := int(hits[id]) - 1; landed != dims {
			return nil, fmt.Errorf("chunkstore: row %d incomplete after full pass (%d/%d dims); store is inconsistent", id, landed, dims)
		}
		out[k] = MergedRow{ID: id, Vals: vals[k*dims : (k+1)*dims : (k+1)*dims]}
	}
	return out, nil
}
