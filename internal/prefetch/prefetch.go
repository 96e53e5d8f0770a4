// Package prefetch implements the background region loading of §3.2
// ("Tuning Interactive Exploration"): when the user sets a response-latency
// threshold σ that a synchronous region load would violate, UEI starts
// fetching the chunks of the anticipated next region in the background,
// θ = ⌈τ/σ⌉ iterations ahead, where τ is the time a region load takes.
//
// τ is modelled, not measured (Theta): a clock reading would make θ, and
// with it the label sequence of a session, depend on timing. The
// prefetcher holds at most one load, in flight or finished and not yet
// taken; starting another cancels it.
package prefetch

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"github.com/uei-db/uei/internal/obs"
)

// ErrClosed is returned by operations on a closed prefetcher.
var ErrClosed = errors.New("prefetch: prefetcher is closed")

// postingBytes is what Theta charges a cell load per posting it reads: a
// decoded posting, an 8-byte value and a 4-byte row id. It models the
// load, not the bytes on disk — the chunk format gap-codes the values and
// bit-packs the ids — so θ is the same for every layout and every format;
// replacing the model with a measured load time is ROADMAP item 5's.
const postingBytes = 12

// maxTheta bounds θ where τ̂/σ leaves the int range: a swap that far off
// never happens in a session either way.
const maxTheta = math.MaxInt32

// Theta returns θ = ⌈τ̂/σ⌉, at least 1: the iterations a swap waits after
// its background load starts. τ̂ is the time a cell load takes under an I/O
// rate of bytesPerSecond in one part over every row: one slab of ⌈rows/segsPerDim⌉
// postings per dimension, postingBytes (12 B) each. The inputs are the same for
// every layout holding the same rows, so θ is too. A non-positive rate (no
// limiter, so no model of I/O cost) or σ is an error.
func Theta(rows, dims, segsPerDim int, bytesPerSecond int64, sigma time.Duration) (int, error) {
	if bytesPerSecond <= 0 {
		return 0, fmt.Errorf("prefetch: θ needs an I/O rate to model a load's time, got %d B/s", bytesPerSecond)
	}
	if sigma <= 0 {
		return 0, fmt.Errorf("prefetch: θ needs a positive latency threshold, got %v", sigma)
	}
	if rows < 0 || dims < 1 || segsPerDim < 1 {
		return 0, fmt.Errorf("prefetch: θ of %d rows over %d dims at %d segments per dim", rows, dims, segsPerDim)
	}
	bytes := float64(dims) * math.Ceil(float64(rows)/float64(segsPerDim)) * postingBytes
	theta := math.Ceil(bytes / float64(bytesPerSecond) / sigma.Seconds())
	switch {
	case theta < 1:
		return 1, nil
	case theta >= maxTheta:
		return maxTheta, nil
	}
	return int(theta), nil
}

// LoadFunc loads a region's tuples from secondary storage. Implementations
// must be safe to call from the prefetcher's goroutine and must honor ctx:
// background loads receive a context the prefetcher cancels on a retarget,
// Cancel or Close, which is what lets those return promptly mid-load.
type LoadFunc func(ctx context.Context, cell int) (ids []uint32, rows [][]float64, err error)

// Result is a completed region load.
type Result struct {
	Cell int
	IDs  []uint32
	Rows [][]float64
	Err  error
	// Ready reports that Await found the background load already done.
	Ready bool
}

// flight is one background load. res is written by its goroutine before
// done closes and read only after.
type flight struct {
	cell   int
	cancel context.CancelFunc
	done   chan struct{}
	res    Result
}

// stop cancels the load and waits for its goroutine to exit. A nil flight
// is a no-op.
func (f *flight) stop() {
	if f == nil {
		return
	}
	f.cancel()
	<-f.done
}

// Prefetcher coordinates asynchronous region loads.
type Prefetcher struct {
	load LoadFunc

	mu     sync.Mutex
	cur    *flight // the load started and not yet taken; nil when none
	closed bool

	// Observability instruments (nil until Instrument; nil-safe no-ops).
	mStarts *obs.Counter
	gQueue  *obs.Gauge
}

// Instrument registers the prefetcher's metrics: prefetch_starts_total
// (background loads started) and the gauge prefetch_queue_depth (1 while a
// load is in flight or finished and not yet taken, else 0).
func (p *Prefetcher) Instrument(reg *obs.Registry) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.mStarts = reg.Counter("prefetch_starts_total")
	p.gQueue = reg.Gauge("prefetch_queue_depth")
}

// New creates a prefetcher over the given loader.
func New(load LoadFunc) (*Prefetcher, error) {
	if load == nil {
		return nil, fmt.Errorf("prefetch: nil load function")
	}
	return &Prefetcher{load: load}, nil
}

// setLocked replaces the held load, returning the one it displaced.
func (p *Prefetcher) setLocked(f *flight) *flight {
	old := p.cur
	p.cur = f
	depth := int64(0)
	if f != nil {
		depth = 1
	}
	p.gQueue.SetInt(depth)
	return old
}

// Start begins loading cell in the background. A load of cell already held
// is kept; a load of any other cell is cancelled and joined first, so at
// most one load runs at a time.
func (p *Prefetcher) Start(cell int) error {
	if cell < 0 {
		return fmt.Errorf("prefetch: invalid cell %d", cell)
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return ErrClosed
	}
	if p.cur != nil && p.cur.cell == cell {
		p.mu.Unlock()
		return nil
	}
	ctx, cancel := context.WithCancel(context.Background())
	f := &flight{cell: cell, cancel: cancel, done: make(chan struct{})}
	stale := p.setLocked(f)
	p.mStarts.Inc()
	p.mu.Unlock()
	stale.stop()
	go func() {
		defer close(f.done)
		f.res.Cell = cell
		f.res.IDs, f.res.Rows, f.res.Err = p.load(ctx, cell)
	}()
	return nil
}

// Await returns the region for cell: the background load of cell, waiting
// for it if it has not finished, or else a synchronous load. A canceled ctx
// aborts the wait (and the synchronous load) and returns a Result carrying
// ctx.Err(); the background load is then kept for a later Await.
func (p *Prefetcher) Await(ctx context.Context, cell int) *Result {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return &Result{Cell: cell, Err: ErrClosed}
	}
	f := p.cur
	p.mu.Unlock()
	if f != nil && f.cell == cell {
		ready := false
		select {
		case <-f.done:
			ready = true
		default:
		}
		select {
		case <-f.done:
		case <-ctx.Done():
			return &Result{Cell: cell, Err: ctx.Err()}
		}
		p.mu.Lock()
		taken := p.cur == f
		if taken {
			p.setLocked(nil)
		}
		closed := p.closed
		p.mu.Unlock()
		if closed {
			return &Result{Cell: cell, Err: ErrClosed}
		}
		if taken {
			f.cancel() // releases the context; the load has finished
			r := f.res
			r.Ready = ready
			return &r
		}
		// A retarget or another caller took the load first: load here.
	}
	ids, rows, err := p.load(ctx, cell)
	return &Result{Cell: cell, IDs: ids, Rows: rows, Err: err}
}

// Cancel stops the held load, if any, waits for its goroutine to exit and
// drops its result. After Cancel returns no load reads anything the loader
// depends on until the next Start.
func (p *Prefetcher) Cancel() {
	p.mu.Lock()
	f := p.setLocked(nil)
	p.mu.Unlock()
	f.stop()
}

// Close cancels any in-flight load, waits for its goroutine to exit, and
// shuts the prefetcher down. Cancellation (rather than waiting the load
// out) makes shutdown deterministic even mid-read: the loader observes
// ctx.Done at its next chunk boundary and returns promptly. Close is
// idempotent and safe to call concurrently with an in-flight load.
func (p *Prefetcher) Close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.Cancel()
}
