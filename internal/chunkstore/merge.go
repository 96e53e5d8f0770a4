package chunkstore

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"

	"github.com/uei-db/uei/internal/kernel"
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

// scratch is the row-id state of one reconstruction. A store numbers its
// rows 0..n-1, so a bitset of n bits (bit id&31 of word id>>5) is §3.1's
// hash table without hashing, and a row's values wait in per-dimension
// lists until the set says which rows survive:
//
//   - set holds the rows still standing: MergeChunks' rows that landed
//     every dimension so far, FetchRows' wanted rows. kernel.MemberMasks
//     tests eight posting ids against it to an instruction.
//   - next collects the rows the dimension under way lands, the first
//     posting of a row winning; MergeChunks swaps it with set after each
//     dimension, so set ends the call holding exactly the survivors.
//   - rank[w] is the number of set bits in the words before w, written for
//     the words that have any, so a survivor's output position is rank plus
//     one popcount.
//   - lists[d] is MergeChunks' (id, value) pairs of dimension d, one per
//     row that landed it, in posting order.
//
// The three word arrays cost 0.375 B per store row, and a pooled scratch
// is all zero between calls: every bit set and every rank word written
// belongs to an id in a list (MergeChunks) or to the word span [lo, hi)
// of the wanted ids (FetchRows), and the release clears exactly those —
// never an O(n) clear of a table the call barely touched.
type scratch struct {
	set, next, rank []uint32
	lists           []dimPairs
	lo, hi          int     // FetchRows: the words its wanted ids span
	masks           []uint8 // one chunk's kernel.MemberMasks
}

// dimPairs is one dimension's (row id, value) pairs, in two columns.
type dimPairs struct {
	ids  []uint32
	vals []float64
}

// acquireScratch takes a zeroed scratch from the store's pool (0.375 bytes
// per store row for each concurrent reconstruction, plus the lists,
// outside memcache.Budget). maxHit is the largest count of dimensions a
// row can land plus marks: the refusal past one byte is the one
// shard.ScanMarked's hit counter makes, so every reconstruction of a
// store accepts the same dimensionality.
func (s *Store) acquireScratch(maxHit int) (*scratch, error) {
	if maxHit > math.MaxUint8 {
		return nil, fmt.Errorf("chunkstore: %d dimensions exceed the reconstruction's one-byte hit counter", s.Dims())
	}
	if sc, ok := s.scratch.Get().(*scratch); ok {
		return sc, nil
	}
	words := s.RowCount()/32 + 1
	return &scratch{set: make([]uint32, words), next: make([]uint32, words), rank: make([]uint32, words)}, nil
}

// releaseScratch zeroes every word the call touched and pools the scratch.
// It runs deferred, so a cancelled context or a corrupt chunk in the
// middle of a dimension leaves the table as clean as a completed call
// does.
func (s *Store) releaseScratch(sc *scratch) {
	for i := range sc.lists {
		l := &sc.lists[i]
		for _, id := range l.ids {
			w := id >> 5
			sc.set[w], sc.next[w], sc.rank[w] = 0, 0, 0
		}
		l.ids, l.vals = l.ids[:0], l.vals[:0]
	}
	clear(sc.set[sc.lo:sc.hi])
	clear(sc.next[sc.lo:sc.hi])
	clear(sc.rank[sc.lo:sc.hi])
	sc.lo, sc.hi = 0, 0
	s.scratch.Put(sc)
}

// memberMasks fills sc.masks with the member masks of ids — bit b of byte j
// set where ids[8j+b] is in sc.set — and refuses, by the first one's name,
// an id past the store.
func (sc *scratch) memberMasks(ids []uint32, n int) ([]uint8, error) {
	sc.masks = slices.Grow(sc.masks[:0], (len(ids)+7)/8)[:(len(ids)+7)/8]
	if maxID := kernel.MemberMasks(sc.masks, ids, sc.set, uint32(n)); len(ids) > 0 && int(maxID) >= n {
		for _, id := range ids {
			if int(id) >= n {
				return nil, errRowRange(id, n)
			}
		}
	}
	return sc.masks, nil
}

// rankWords writes rank[w] for the words of set in [lo, hi) that hold a
// bit, and returns the number of bits they hold.
func (sc *scratch) rankWords(lo, hi int) int {
	count := 0
	for w, b := range sc.set[lo:hi] {
		if b != 0 {
			sc.rank[lo+w] = uint32(count)
			count += bits.OnesCount32(b)
		}
	}
	return count
}

// position is the output position of id, a member of set, among the
// members in ascending order.
func (sc *scratch) position(id uint32) int {
	w := id >> 5
	return int(sc.rank[w]) + bits.OnesCount32(sc.set[w]&(1<<(id&31)-1))
}

// wordSpan is the range of bitset words [lo, hi) that ids fall in (empty
// for no ids).
func wordSpan(ids []uint32) (lo, hi int) {
	if len(ids) == 0 {
		return 0, 0
	}
	minID, maxID := ids[0], ids[0]
	for _, id := range ids[1:] {
		minID, maxID = min(minID, id), max(maxID, id)
	}
	return int(minID >> 5), int(maxID>>5) + 1
}

// postingOf is the index of the posting whose Ends range holds position k
// of p.Rows — the least i with p.Ends[i] > k — given a posting at or before
// it, from. Every posting holds a row, so i ≤ k, and in a chunk of one-row
// postings i = k, which the first probe confirms; otherwise the search
// walks forward from `from`. Asked for ascending positions, each with the
// last answer as from, the walks of one chunk pass each end once at most.
func (p Postings) postingOf(k, from int) int {
	if i := min(k, len(p.Ends)-1); i == 0 || p.Ends[i-1] <= uint32(k) {
		return i
	}
	for p.Ends[from] <= uint32(k) {
		from++
	}
	return from
}

// rowStart is the position in p.Rows of posting i's first row id.
func (p Postings) rowStart(i int) uint32 {
	if i == 0 {
		return 0
	}
	return p.Ends[i-1]
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
// Dimension 0's in-box postings set a bit per row in the set and append
// their (id, value) to the dimension's list. Each later dimension tests
// its in-box row ids against the set eight at a time (kernel.MemberMasks)
// and touches only the members: a member's first posting on the dimension
// sets its bit in the next set and appends its pair, and the two sets
// swap. The work after dimension 0 thus follows the shrinking
// intersection rather than the slabs, and nothing is rewritten between
// dimensions. After the last one the set holds exactly the survivors:
// walking its words yields them in ascending id order, and each list is
// filtered through it into one array the returned rows alias, a
// survivor's place found by a per-word prefix count.
//
// Chunks are read and decoded one at a time through ReadChunksOrdered and
// applied strictly in chunk order; one decoded chunk is in memory at once.
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

	n := s.RowCount()
	if len(sc.lists) < dims {
		sc.lists = append(sc.lists, make([]dimPairs, dims-len(sc.lists))...)
	}
	for d := 0; d < dims; d++ {
		lo, hi := box.Min[d], box.Max[d]
		// Dimension 0 lands rows in the set itself; a later one in next.
		landed, l := sc.next, &sc.lists[d]
		if d == 0 {
			landed = sc.set
		}
		err := s.ReadChunksOrdered(ctx, byDim[d], func(_ ChunkMeta, p Postings) error {
			// Values ascend strictly, so the postings below the box are a
			// prefix and those above it a suffix, each found by one search.
			// e counts what a walk from the first posting would: the prefix,
			// the box and the first posting past it.
			first := sort.SearchFloat64s(p.Values, lo)
			last := first + sort.Search(len(p.Values)-first, func(j int) bool { return p.Values[first+j] > hi })
			entriesVisited += min(last+1, len(p.Values))
			base := p.rowStart(first)
			// The list grows in locals, stored back on every return: the
			// release clears the bits of the ids it holds.
			ids, vals := l.ids, l.vals
			if d == 0 {
				for i := first; i < last; i++ {
					v := p.Values[i]
					for _, id := range p.Rows[base:p.Ends[i]] {
						if int(id) >= n {
							l.ids, l.vals = ids, vals
							return errRowRange(id, n)
						}
						w, bit := id>>5, uint32(1)<<(id&31)
						if landed[w]&bit != 0 {
							continue // posted twice on this dimension
						}
						landed[w] |= bit
						ids, vals = append(ids, id), append(vals, v)
					}
					base = p.Ends[i]
				}
				l.ids, l.vals = ids, vals
				return nil
			}
			rows := p.Rows[base:p.rowStart(last)]
			masks, err := sc.memberMasks(rows, n)
			if err != nil {
				return err
			}
			at := first
			for j, m := range masks {
				for ; m != 0; m &= m - 1 {
					k := 8*j + bits.TrailingZeros8(m)
					// A member landed every dimension before this one; one
					// already posted on this one counts once.
					id := rows[k]
					w, bit := id>>5, uint32(1)<<(id&31)
					if landed[w]&bit != 0 {
						continue
					}
					landed[w] |= bit
					at = p.postingOf(int(base)+k, at)
					ids, vals = append(ids, id), append(vals, p.Values[at])
				}
			}
			l.ids, l.vals = ids, vals
			// p goes out of scope here, and with it the contract of
			// ReadChunksOrdered ends: the next chunk is decoded over this
			// one's arrays (or, with a block cache installed, the chunk
			// stays resident for other readers). Everything kept was copied
			// into the list above.
			return nil
		})
		if err != nil {
			return nil, 0, err
		}
		if d > 0 {
			// The rows that missed this dimension leave: clear the old set
			// (its bits are the previous list's ids) and swap.
			for _, id := range sc.lists[d-1].ids {
				sc.set[id>>5] = 0
			}
			sc.set, sc.next = sc.next, sc.set
		}
	}

	lo, hi := wordSpan(sc.lists[dims-1].ids)
	rows = make([]MergedRow, sc.rankWords(lo, hi))
	out := make([]float64, len(rows)*dims)
	k := 0
	for w := lo; w < hi; w++ {
		for b := sc.set[w]; b != 0; b &= b - 1 {
			rows[k] = MergedRow{ID: uint32(w<<5 | bits.TrailingZeros32(b)), Vals: out[k*dims : (k+1)*dims : (k+1)*dims]}
			k++
		}
	}
	for d := range dims {
		l := &sc.lists[d]
		for i, id := range l.ids {
			if sc.set[id>>5]&(1<<(id&31)) != 0 {
				out[sc.position(id)*dims+d] = l.vals[i]
			}
		}
	}
	return rows, entriesVisited, nil
}

// FetchRows reconstructs the tuples with the given ids by streaming every
// chunk once (a single full pass over the store). It backs the
// initialization-time uniform sample of Algorithm 2 line 12; per-iteration
// code never calls it. The wanted ids are the set of the same scratch
// MergeChunks uses, every chunk's row ids are tested against it eight at a
// time (kernel.MemberMasks), and a member's first posting on a dimension
// marks it in that dimension's landed set and writes straight into the
// result at its rank among the wanted ids.
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

	n := s.RowCount()
	for _, id := range ids {
		if int(id) >= n {
			return nil, errRowRange(id, n)
		}
	}
	sc.lo, sc.hi = wordSpan(ids)
	for _, id := range ids {
		sc.set[id>>5] |= 1 << (id & 31)
	}
	count := sc.rankWords(sc.lo, sc.hi)
	vals := make([]float64, count*dims)
	// missed[k] is 1 + the first dimension the k-th wanted row did not
	// land, the dimensions it did land counted as the rows' hit bytes did:
	// up to the first miss. It is allocated only when a row misses.
	var missed []uint8
	landed := sc.next
	for d := 0; d < dims; d++ {
		err := s.ReadChunksOrdered(ctx, s.manifest.Chunks[d], func(_ ChunkMeta, p Postings) error {
			masks, err := sc.memberMasks(p.Rows, n)
			if err != nil {
				return err
			}
			at := 0
			for j, m := range masks {
				for ; m != 0; m &= m - 1 {
					k := 8*j + bits.TrailingZeros8(m)
					id := p.Rows[k]
					w, bit := id>>5, uint32(1)<<(id&31)
					if landed[w]&bit != 0 {
						continue
					}
					landed[w] |= bit
					at = p.postingOf(k, at)
					vals[sc.position(id)*dims+d] = p.Values[at]
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		for w := sc.lo; w < sc.hi; w++ {
			for b := sc.set[w] &^ landed[w]; b != 0; b &= b - 1 {
				if missed == nil {
					missed = make([]uint8, count)
				}
				if k := sc.position(uint32(w<<5 | bits.TrailingZeros32(b))); missed[k] == 0 {
					missed[k] = uint8(d + 1)
				}
			}
			landed[w] = 0
		}
	}
	out := make([]MergedRow, count)
	k := 0
	for w := sc.lo; w < sc.hi; w++ {
		for b := sc.set[w]; b != 0; b &= b - 1 {
			id := uint32(w<<5 | bits.TrailingZeros32(b))
			if missed != nil && missed[k] != 0 {
				return nil, fmt.Errorf("chunkstore: row %d incomplete after full pass (%d/%d dims); store is inconsistent", id, missed[k]-1, dims)
			}
			out[k] = MergedRow{ID: id, Vals: vals[k*dims : (k+1)*dims : (k+1)*dims]}
			k++
		}
	}
	return out, nil
}
