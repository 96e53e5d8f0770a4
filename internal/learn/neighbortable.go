package learn

import (
	"context"
	"fmt"
	"math"

	"github.com/uei-db/uei/internal/kernel"
)

// NeighborTable keeps DWKNN's k-NN scan resumable for a set of points that
// is scored again and again while the training set only grows: the unlabeled
// pool U each selection, the symbolic points P each retrain.
//
// DWKNN.scan is a bounded insertion over training rows in ascending index
// order, so the sorted k-slot list a point ends a scan of rows [0, L) with is
// the scan's whole state after L rows. The table keeps that list — and the
// posterior it yields — per point, keyed by an ascending uint32 id. When the
// next model holds the same rows plus L′−L appended ones, a point seen last
// pass resumes at row L: one distance per new row, and the posterior is
// recomputed only if a new row entered the list. Continuing a deterministic
// scan from its saved state is the scan, so every posterior equals
// PosteriorPositive on the new model bit for bit; nothing is approximated
// and no bound is consulted.
//
// A pass is Begin, then Posterior once per point in strictly ascending id
// order, then End — or ScoreBlock, the same pass over a packed block.
// Begin checks that the model extends the retained one (same K, dims,
// bit-equal scales, old scaled rows and labels a pointwise-equal prefix)
// and otherwise drops every list. Posterior merge-walks the previous
// pass's ids against the stream: an id seen last pass resumes, an id not
// seen is scanned from row 0, and an id that disappeared gives its slot
// back — a region swap, a labeled row leaving the pool or a new epoch needs
// no invalidation hook. A pass that ends early, or
// whose ids do not ascend, retains nothing: the next one scans from scratch.
//
// Lists live in slots that survive from pass to pass: K float64 distances,
// K uint32 row indexes and one posterior per slot, in flat arrays, plus one
// (id, slot) pair per slot — 12·K + 16 bytes a point (Bytes reports the
// exact figure). Begin's capacity sizes them; they grow only when a pass
// brings more points than that. The zero value is ready to use. A table is
// not safe for concurrent use.
type NeighborTable struct {
	// The training set the retained lists were scanned over. Fit never
	// writes through the slices a fitted model holds, so keeping the
	// headers pins that set even if the model object is refit.
	k      int
	x      [][]float64
	y      []int
	scales []float64

	// ent has one element per slot. Between passes ent[:n] are the points
	// of the last complete pass, ascending by id, each with the slot its
	// list lives in. During a pass the previous points sit right-aligned in
	// ent[rd:] — rd walks them — and the pass's own points are written to
	// ent[:wr]. A slot is owned by an unread entry, a written entry or the
	// free list, so wr = rd - (free slots): the writer never reaches the
	// reader while a free slot is left.
	ent       []tableEntry
	n, rd, wr int

	// Slot s holds its sorted list in d2[s*k:] and idx[s*k:] — min(k, rows
	// scanned) entries, the same count in every slot — and the posterior
	// that list yields in post[s]. Free slots are chained through their
	// first idx word: free and every link hold 1 + the next free slot, 0 at
	// the end of the chain.
	d2   []float64
	idx  []uint32
	post []float64
	free uint32

	// The pass under way: its model, the first training row the retained
	// lists have not seen, the smallest id that still ascends, whether every
	// id so far did, and the tally.
	m       *DWKNN
	from    int
	next    uint64
	ordered bool
	pass    NeighborPass

	// Scan scratch: the scaled query, the list being built, and
	// posteriorFrom's distances.
	q     []float64
	best  []neighbor
	dists []float64

	// ScoreBlock's strip scratch: the strip's scaled points, layout
	// [d*w+i]; one new training row's squared distances to them; and per
	// point its slot, the k-th distance a new row must beat (NaN once
	// nothing is left to test) and the first new row that beat it (-1 for
	// none; noList marks a point with no retained list).
	qs    []float64
	dr    [dwknnStrip]float64
	dk2   [dwknnStrip]float64
	slot  [dwknnStrip]uint32
	start [dwknnStrip]int32
}

// noList is the start of a strip point that has no retained list.
const noList = -2

// tableEntry places one point's list.
type tableEntry struct{ id, slot uint32 }

// NeighborPass tallies one pass over a NeighborTable. Carried + Scanned is
// the number of points scored; Changed counts the carried points whose list
// a new training row entered (the rest kept their posterior untouched).
type NeighborPass struct {
	// Carried points resumed their scan at the first new training row.
	Carried int
	// Scanned points had no retained list and were scanned from row 0.
	Scanned int
	// Changed is the subset of Carried whose list, and so posterior, was
	// rebuilt.
	Changed int
}

// Begin opens a pass under model m. capacity is the number of points the
// caller expects to keep lists for: slot storage grows to exactly that
// (never shrinks), so a caller that knows its set allocates once. Begin
// during an open pass abandons that pass first.
func (t *NeighborTable) Begin(m *DWKNN, capacity int) error {
	if !m.fitted {
		return ErrNotFitted
	}
	if t.m != nil {
		t.Reset()
	}
	if !t.extendedBy(m) {
		if t.k != m.K {
			// The slot stride changes with K; nothing sized for the old
			// one is reusable.
			t.Release()
		} else {
			t.Reset()
		}
	}
	t.k = m.K
	if cap(t.q) < m.dims {
		t.q = make([]float64, m.dims)
	}
	if cap(t.best) < t.k {
		t.best = make([]neighbor, t.k)
		t.dists = make([]float64, t.k)
	}
	// Between passes the retained points are a written prefix with nothing
	// unread; grow keeps that shape, then they move to the right end to be
	// read back.
	t.rd, t.wr = len(t.ent), t.n
	if capacity > len(t.ent) {
		t.grow(capacity)
	}
	t.rd = len(t.ent) - t.n
	copy(t.ent[t.rd:], t.ent[:t.n])
	t.wr = 0
	t.m = m
	t.from = len(t.x)
	t.next, t.ordered = 0, true
	t.pass = NeighborPass{}
	return nil
}

// extendedBy reports whether m's training set is the retained one with rows
// appended (possibly none) under the same K and scales — the condition for
// every retained list to be the state of m's scan after len(t.x) rows.
func (t *NeighborTable) extendedBy(m *DWKNN) bool {
	if t.x == nil || t.k != m.K || len(t.x) > len(m.x) || len(t.scales) != m.dims {
		return false
	}
	for j, s := range t.scales {
		if s != m.scales[j] {
			return false
		}
	}
	for i, row := range t.x {
		if t.y[i] != m.y[i] {
			return false
		}
		for j, v := range m.x[i] {
			if row[j] != v {
				return false
			}
		}
	}
	return true
}

// Posterior returns P(positive | row) under the pass's model, exactly as
// PosteriorPositive would, for the point id. Ids must ascend strictly within
// a pass; one that does not is still scored correctly, but from then on the
// pass scans every point from row 0 and End retains nothing.
func (t *NeighborTable) Posterior(id uint32, row []float64) (float64, error) {
	m := t.m
	if m == nil {
		return 0, fmt.Errorf("learn: NeighborTable.Posterior outside a pass")
	}
	if len(row) != m.dims {
		return 0, fmt.Errorf("learn: query has %d dims, model has %d", len(row), m.dims)
	}
	q := t.q[:m.dims]
	for j, v := range row {
		q[j] = v / m.scales[j]
	}
	if uint64(id) < t.next {
		t.ordered = false
	}
	t.next = uint64(id) + 1
	if !t.ordered {
		t.pass.Scanned++
		return m.posteriorFrom(m.scan(q, 0, m.effectiveK(), t.best[:0]), t.dists), nil
	}
	s, carried := t.place(id)
	if carried {
		return t.resume(int(s), q), nil
	}
	return t.scanNew(int(s), q), nil
}

// place gives the point id, which ascends past every id placed before it
// in the pass, its slot: the one its retained list lives in (carried), or
// a free one.
func (t *NeighborTable) place(id uint32) (slot uint32, carried bool) {
	// Ids the stream has passed over left the set: their slots are free.
	for t.rd < len(t.ent) && t.ent[t.rd].id < id {
		t.release(t.ent[t.rd].slot)
		t.rd++
	}
	if t.rd < len(t.ent) && t.ent[t.rd].id == id {
		s := t.ent[t.rd].slot
		t.rd++
		t.ent[t.wr] = tableEntry{id, s}
		t.wr++
		return s, true
	}
	if t.free == 0 {
		// The stream outran Begin's capacity.
		t.grow(len(t.ent) + len(t.ent)/16 + 16)
	}
	s := t.free - 1
	t.free = t.idx[int(s)*t.k]
	t.ent[t.wr] = tableEntry{id, s}
	t.wr++
	return s, false
}

// scanNew scans the whole training set for a point without a retained
// list, into slot s.
func (t *NeighborTable) scanNew(s int, q []float64) float64 {
	t.pass.Scanned++
	return t.store(s, t.m.scan(q, 0, t.m.effectiveK(), t.best[:0]))
}

// resume continues slot s's scan over the rows appended since its list was
// built. A full list changes only if a new row is strictly nearer than its
// k-th entry — new indexes exceed every retained one, so (d², idx) order
// makes "d² < d_k²" the whole test — and until one is, no list is touched.
func (t *NeighborTable) resume(s int, q []float64) float64 {
	m, k := t.m, t.k
	t.pass.Carried++
	r, rows := t.from, len(m.x)
	if t.from >= k {
		dk2 := t.d2[s*k+k-1]
		for r < rows && !(sqDist(m.x[r], q) < dk2) {
			r++
		}
	}
	if r == rows {
		return t.post[s]
	}
	return t.rescan(s, q, r)
}

// rescan rebuilds slot s's list by continuing its scan at training row r,
// the first new row that enters it (any new row, for a list not yet full).
func (t *NeighborTable) rescan(s int, q []float64, r int) float64 {
	k := t.k
	best := t.best[:min(k, t.from)]
	for i := range best {
		best[i] = neighbor{Idx: int(t.idx[s*k+i]), D2: t.d2[s*k+i]}
	}
	t.pass.Changed++
	return t.store(s, t.m.scan(q, r, t.m.effectiveK(), best))
}

// ScoreBlock runs a whole pass — Begin, the points in id order, End — under
// model m over the points of blk, point i's id being i, and returns its
// tally; Posteriors then reads the result. Every posterior, list, slot and
// tally is the one the per-point pass would leave.
//
// The carried points take the full-list test a strip of 256 at a time: the
// strip is scaled by the row path's division (kernel.ScaleInto), each new
// training row's squared distance to the whole strip is computed with the
// expression sqDist evaluates (kernel.SquaredDiffInto, AddSquaredDiff),
// and each point's first new row nearer than its k-th neighbour is noted.
// Only the points a new row enters, those without a retained list and
// those whose lists are not yet full take the scalar path. A pass cut
// short by ctx, checked every strip, returns ctx.Err() and retains
// nothing.
func (t *NeighborTable) ScoreBlock(ctx context.Context, m *DWKNN, blk *kernel.Block) (NeighborPass, error) {
	if err := t.Begin(m, blk.N); err != nil {
		return NeighborPass{}, err
	}
	err := t.scoreStrips(ctx, blk)
	pass := t.End(err == nil)
	if err != nil {
		return NeighborPass{}, err
	}
	return pass, nil
}

// scoreStrips is ScoreBlock's pass body, between Begin and End.
func (t *NeighborTable) scoreStrips(ctx context.Context, blk *kernel.Block) error {
	m, k := t.m, t.k
	if blk.Dims != m.dims {
		return fmt.Errorf("learn: block has %d dims, model has %d", blk.Dims, m.dims)
	}
	if cap(t.qs) < m.dims*dwknnStrip {
		t.qs = make([]float64, m.dims*dwknnStrip)
	}
	full := t.from >= k
	q := t.q[:m.dims]
	for base := 0; base < blk.N; base += dwknnStrip {
		if err := ctx.Err(); err != nil {
			return err
		}
		w := min(blk.N-base, dwknnStrip)
		qs := t.qs[:m.dims*w]
		for d := range m.dims {
			kernel.ScaleInto(qs[d*w:d*w+w], blk.Col(d)[base:base+w], m.scales[d])
		}
		for i := range w {
			s, carried := t.place(uint32(base + i))
			t.slot[i], t.start[i], t.dk2[i] = s, -1, math.NaN()
			switch {
			case !carried:
				t.start[i] = noList
			case full:
				t.dk2[i] = t.d2[int(s)*k+k-1]
			}
		}
		if full {
			dr, dk2 := t.dr[:w], t.dk2[:w]
			for r := t.from; r < len(m.x); r++ {
				row := m.x[r]
				kernel.SquaredDiffInto(dr, qs[:w], row[0])
				for d := 1; d < len(row); d++ {
					kernel.AddSquaredDiff(dr, qs[d*w:d*w+w], row[d])
				}
				// A NaN k-th distance is beaten by nothing, as in resume.
				for i, d2 := range dr {
					if d2 < dk2[i] {
						t.start[i], dk2[i] = int32(r), math.NaN()
					}
				}
			}
		}
		for i := range w {
			s, r := int(t.slot[i]), t.start[i]
			if r == -1 && full {
				t.pass.Carried++ // no new row entered the list
				continue
			}
			for d := range q {
				q[d] = qs[d*w+i]
			}
			switch {
			case r == noList:
				t.scanNew(s, q)
			case full:
				t.pass.Carried++
				t.rescan(s, q, int(r))
			default:
				t.resume(s, q)
			}
		}
	}
	return nil
}

// store writes a finished list into slot s and returns (and keeps) its
// posterior.
func (t *NeighborTable) store(s int, nb []neighbor) float64 {
	for i, n := range nb {
		t.d2[s*t.k+i] = n.D2
		t.idx[s*t.k+i] = uint32(n.Idx)
	}
	p := t.m.posteriorFrom(nb, t.dists)
	t.post[s] = p
	return p
}

// release puts slot s on the free chain.
func (t *NeighborTable) release(s uint32) {
	t.idx[int(s)*t.k] = t.free
	t.free = s + 1
}

// grow reallocates storage to n slots. Lists keep their slots; the written
// entries stay a prefix, the unread ones stay right-aligned, and the new
// slots go on the free chain, lowest first.
func (t *NeighborTable) grow(n int) {
	old := len(t.ent)
	t.d2 = append(make([]float64, 0, n*t.k), t.d2...)[:n*t.k]
	t.idx = append(make([]uint32, 0, n*t.k), t.idx...)[:n*t.k]
	t.post = append(make([]float64, 0, n), t.post...)[:n]
	ent := make([]tableEntry, n)
	copy(ent, t.ent[:t.wr])
	unread := t.ent[t.rd:]
	t.rd = n - len(unread)
	copy(ent[t.rd:], unread)
	t.ent = ent
	for s := n - 1; s >= old; s-- {
		t.release(uint32(s))
	}
}

// End closes the pass and returns its tally. complete says the caller fed
// every point it meant to and used every posterior; only then (and only if
// the ids ascended) do the lists survive for the next pass to resume.
// Otherwise the table is Reset: a pass cut short by a cancelled context, an
// error or an early exit leaves no stale list behind.
func (t *NeighborTable) End(complete bool) NeighborPass {
	m := t.m
	if m == nil {
		return NeighborPass{}
	}
	if !complete || !t.ordered {
		t.Reset()
		return t.pass
	}
	for ; t.rd < len(t.ent); t.rd++ {
		t.release(t.ent[t.rd].slot)
	}
	t.n = t.wr
	t.x, t.y, t.scales = m.x, m.y, m.scales
	t.m = nil
	return t.pass
}

// Posteriors copies the posteriors of the last complete pass, in id order,
// into dst and returns how many it wrote (min(len(dst), Len())).
func (t *NeighborTable) Posteriors(dst []float64) int {
	n := min(len(dst), t.n)
	for i, e := range t.ent[:n] {
		dst[i] = t.post[e.slot]
	}
	return n
}

// Len returns the number of points the table retains a list for.
func (t *NeighborTable) Len() int { return t.n }

// Cap returns the number of points the table has storage for.
func (t *NeighborTable) Cap() int { return len(t.ent) }

// Reset drops every list and the retained model but keeps the storage, so
// the next pass scans from scratch without allocating.
func (t *NeighborTable) Reset() {
	t.x, t.y, t.scales, t.m = nil, nil, nil, nil
	t.n, t.free = 0, 0
	for s := len(t.ent) - 1; s >= 0; s-- {
		t.release(uint32(s))
	}
}

// Release drops the storage too; the table is back to its zero value.
func (t *NeighborTable) Release() { *t = NeighborTable{} }

// Bytes returns the memory the table holds: 12·K + 8 bytes of list and
// posterior per slot plus 8 bytes of (id, slot).
func (t *NeighborTable) Bytes() int64 {
	return int64(8*(cap(t.d2)+cap(t.post)+cap(t.ent)) + 4*cap(t.idx))
}
