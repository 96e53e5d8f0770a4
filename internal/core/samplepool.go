package core

import (
	"context"
	"math"
	"math/bits"

	"github.com/uei-db/uei/internal/chunkstore"
	"github.com/uei-db/uei/internal/memcache"
	"github.com/uei-db/uei/internal/obs"
	"github.com/uei-db/uei/internal/shard"
)

// poolFactor sizes the sample pool: its threshold admits about
// poolFactor·γ·N/N̂ rows, between 4γ and 8γ.
const poolFactor = 8

// poolMaxBytes bounds the sample pool's memory, which no
// MemoryBudgetBytes counts. A draw whose threshold admits more rows than
// fit fetches only its γ rows and keeps none of them.
const poolMaxBytes = 16 << 20

// poolRowBytes is what the pool holds for one dims-wide row: its id and
// its values.
func poolRowBytes(dims int) int { return 4 + 8*dims }

// tauAll is the threshold 2⁶⁴, which admits every row.
const tauAll = math.MaxUint64

// mixID is the fixed 64-bit mix (splitmix64's finalizer) a row's pool
// membership is decided by: the row is in the pool under threshold τ iff
// mixID(id) < τ.
func mixID(id uint32) uint64 {
	z := uint64(id) + 0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// admits reports whether threshold tau admits row id.
func admits(tau uint64, id uint32) bool { return tau == tauAll || mixID(id) < tau }

// baseThreshold is τ = 2⁶⁴·min(1, 8γ/N̂), N̂ being the row count rounded
// up to a power of two.
func baseThreshold(gamma, rows int) uint64 {
	want := uint64(poolFactor) * uint64(gamma)
	hat := uint64(1) << bits.Len(uint(max(rows, 1)-1))
	if want >= hat {
		return tauAll
	}
	return want << (64 - bits.TrailingZeros64(hat))
}

// doubled is 2τ, saturating at tauAll.
func doubled(tau uint64) uint64 {
	if tau >= 1<<63 {
		return tauAll
	}
	return tau << 1
}

// samplePool is one opened index's in-memory sample pool: every row below
// rows whose id threshold tau admits, ascending by id, each row's values
// dims wide in vals. An index and all its views draw their U from it
// (draw), so only the first view, and a view that needs a larger threshold
// or holds rows the pool has not tested, reads the store. Whether a
// threshold admits a row depends only on the row's id, so appended rows
// never displace admitted ones, and what a view draws depends only on its
// rows, γ and seed — never on the pool's history. Its memory sits outside
// every MemoryBudgetBytes, like the neighbour tables, and is reported by
// the uei_sample_pool_* gauges; it never holds more than maxRows rows.
type samplePool struct {
	// sem admits one draw at a time; waiting on it honours the caller's
	// context, so views opening together wait for one read.
	sem     chan struct{}
	dims    int
	maxRows int

	// The pool proper, read and written only while holding sem. An empty
	// pool has tau 0 and rows 0; closed refuses further draws.
	tau    uint64
	rows   int
	ids    []uint32
	vals   []float64
	closed bool

	gRows, gBytes           *obs.Gauge
	mFull, mExtend, mDirect *obs.Counter
}

// newSamplePool creates an empty pool of dims-wide rows reporting to reg.
func newSamplePool(dims int, reg *obs.Registry) *samplePool {
	return &samplePool{
		sem:     make(chan struct{}, 1),
		dims:    dims,
		maxRows: poolMaxBytes / poolRowBytes(dims),
		gRows:   reg.Gauge("uei_sample_pool_rows"),
		gBytes:  reg.Gauge("uei_sample_pool_bytes"),
		mFull:   reg.Counter(`uei_sample_pool_reads_total{kind="full"}`),
		mExtend: reg.Counter(`uei_sample_pool_reads_total{kind="extend"}`),
		mDirect: reg.Counter(`uei_sample_pool_reads_total{kind="direct"}`),
	}
}

// draw returns U for a view reading rows rows through coord: γ ids drawn
// uniformly, by seed, from the rows below rows its threshold admits, with
// copies of their values. The threshold is baseThreshold(γ, rows), doubled
// until it admits γ rows. The pool reads what it lacks of them through
// coord first; a failed or cancelled read leaves the pool as it was. When
// the threshold admits more than maxRows rows, only the γ drawn are
// fetched, and the pool keeps none of them.
func (p *samplePool) draw(ctx context.Context, coord *shard.Coordinator, rows, gamma int, seed int64) ([]uint32, [][]float64, error) {
	select {
	case p.sem <- struct{}{}:
	case <-ctx.Done():
		return nil, nil, ctx.Err()
	}
	defer func() { <-p.sem }()
	if p.closed {
		return nil, nil, ErrClosed
	}
	tau := baseThreshold(gamma, rows)
	n := p.count(rows, tau)
	for tau != tauAll && n < gamma {
		tau = doubled(tau)
		n = p.count(rows, tau)
	}
	picks, err := memcache.SampleIDs(n, gamma, seed)
	if err != nil {
		return nil, nil, err
	}
	if n > p.maxRows {
		return p.direct(ctx, coord, rows, tau, picks)
	}
	if err := p.cover(ctx, coord, rows, tau); err != nil {
		return nil, nil, err
	}
	var admitted []int
	for i, id := range p.ids {
		if int(id) >= rows {
			break
		}
		if admits(tau, id) {
			admitted = append(admitted, i)
		}
	}
	d := p.dims
	ids := make([]uint32, len(picks))
	vals := make([][]float64, len(picks))
	buf := make([]float64, len(picks)*d)
	for j, k := range picks {
		i := admitted[k]
		ids[j] = p.ids[i]
		vals[j] = buf[j*d : (j+1)*d : (j+1)*d]
		copy(vals[j], p.vals[i*d:(i+1)*d])
	}
	return ids, vals, nil
}

// direct returns the rows a draw picks — the picks[j]-th of the ids below
// rows that tau admits, found by testing every id — fetching only them.
func (p *samplePool) direct(ctx context.Context, coord *shard.Coordinator, rows int, tau uint64, picks []uint32) ([]uint32, [][]float64, error) {
	ids := make([]uint32, 0, len(picks))
	for id, k := uint32(0), uint32(0); int(id) < rows && len(ids) < len(picks); id++ {
		if admits(tau, id) {
			if k == picks[len(ids)] {
				ids = append(ids, id)
			}
			k++
		}
	}
	fetched, err := coord.FetchRows(ctx, ids)
	if err != nil {
		return nil, nil, err
	}
	p.mDirect.Inc()
	vals := make([][]float64, len(fetched))
	for i, r := range fetched {
		vals[i] = r.Vals
	}
	return ids, vals, nil
}

// count returns how many rows below rows tau admits, counting from the
// pool the ones it holds (every admitted row below p.rows, when tau is at
// most the pool's threshold) and hashing the ids of the rest.
func (p *samplePool) count(rows int, tau uint64) int {
	n, from := 0, 0
	if tau <= p.tau {
		for _, id := range p.ids {
			if int(id) >= rows {
				break
			}
			if admits(tau, id) {
				n++
			}
		}
		from = min(p.rows, rows)
	}
	for id := from; id < rows; id++ {
		if admits(tau, uint32(id)) {
			n++
		}
	}
	return n
}

// cover makes the pool hold every row below rows that tau admits, reading
// the missing ones through coord in one fetch. A pool that already does —
// its threshold is at least tau and it has tested every row below rows —
// is left alone, so views of smaller γ or of older epochs share it as it
// is. Otherwise the pool becomes exactly the rows below rows that tau
// admits: under a larger threshold ("full") every id is tested again and
// the new members are read; for rows the pool has not tested ("extend")
// only their ids are tested and only their members are read, and the
// threshold drops to tau, dropping the rows it no longer admits, so the
// pool stays within 4γ–8γ rows as a live store grows.
func (p *samplePool) cover(ctx context.Context, coord *shard.Coordinator, rows int, tau uint64) error {
	grow := tau > p.tau
	if !grow && rows <= p.rows {
		return nil
	}
	// Below p.rows the pool holds every row its threshold admits, so an
	// extension tests only the ids past it.
	from := 0
	if !grow {
		from = p.rows
	}
	var need []uint32
	for id := uint32(from); int(id) < rows; id++ {
		if admits(tau, id) && !(int(id) < p.rows && admits(p.tau, id)) {
			need = append(need, id)
		}
	}
	var fetched []chunkstore.MergedRow
	if len(need) > 0 {
		var err error
		if fetched, err = coord.FetchRows(ctx, need); err != nil {
			return err
		}
		if grow {
			p.mFull.Inc()
		} else {
			p.mExtend.Inc()
		}
	}
	p.merge(rows, tau, fetched)
	return nil
}

// merge makes the pool the rows below rows that tau admits: the ones it
// holds, merged by id with fetched. It moves the gauges by the difference.
func (p *samplePool) merge(rows int, tau uint64, fetched []chunkstore.MergedRow) {
	d := p.dims
	before := len(p.ids)
	ids := make([]uint32, 0, len(fetched)+before)
	vals := make([]float64, 0, (len(fetched)+before)*d)
	keep := func(i int) {
		if id := p.ids[i]; int(id) < rows && admits(tau, id) {
			ids, vals = append(ids, id), append(vals, p.vals[i*d:(i+1)*d]...)
		}
	}
	i := 0
	for _, r := range fetched {
		for ; i < before && p.ids[i] < r.ID; i++ {
			keep(i)
		}
		ids, vals = append(ids, r.ID), append(vals, r.Vals...)
	}
	for ; i < before; i++ {
		keep(i)
	}
	p.ids, p.vals, p.tau, p.rows = ids, vals, tau, rows
	p.account(len(p.ids) - before)
}

// account moves the pool gauges by delta rows.
func (p *samplePool) account(delta int) {
	p.gRows.Add(float64(delta))
	p.gBytes.Add(float64(delta * poolRowBytes(p.dims)))
}

// close frees the pool, waiting for a read in flight; later draws fail
// with ErrClosed.
func (p *samplePool) close() {
	p.sem <- struct{}{}
	defer func() { <-p.sem }()
	p.account(-len(p.ids))
	p.ids, p.vals, p.tau, p.rows, p.closed = nil, nil, 0, 0, true
}
