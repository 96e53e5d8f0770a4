// Package pool provides the reusable worker pool behind UEI's parallel
// per-iteration hot path. A Pool owns a fixed set of long-lived goroutines
// (started once, at index open) and shards embarrassingly parallel loops —
// symbolic-point scoring, retrieval classification — across them without
// per-call goroutine churn. Work is always split into contiguous shards so
// results land in caller-owned slices with no synchronization beyond the
// final barrier, keeping parallel output byte-identical to the serial path.
package pool

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/uei-db/uei/internal/obs"
)

// Pool is a fixed-size worker pool. The zero value is not usable; call New.
// A Pool with one worker runs everything inline on the caller's goroutine,
// so serial configurations pay no synchronization cost at all.
type Pool struct {
	workers int
	tasks   chan func()
	once    sync.Once

	// Observability instruments (nil until Instrument; nil-safe no-ops).
	gWorkers *obs.Gauge
	mRuns    *obs.Counter
	mShards  *obs.Counter
	hUtil    *obs.Histogram
}

// New creates a pool with the given number of workers. Zero (or negative)
// selects runtime.GOMAXPROCS(0). With more than one worker the goroutines
// start immediately and idle on a task channel until Close.
func New(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{workers: workers}
	if workers > 1 {
		p.tasks = make(chan func())
		for i := 0; i < workers; i++ {
			go p.worker()
		}
	}
	return p
}

// Workers returns the pool's worker count.
func (p *Pool) Workers() int { return p.workers }

// Instrument registers the pool's metrics: the uei_pool_workers gauge, the
// uei_pool_runs_total / uei_pool_shards_total counters, and the
// uei_pool_utilization ratio histogram (per-run busy time divided by
// workers × wall time; 1.0 means every worker was busy the whole run).
func (p *Pool) Instrument(reg *obs.Registry) {
	p.gWorkers = reg.Gauge("uei_pool_workers")
	p.mRuns = reg.Counter("uei_pool_runs_total")
	p.mShards = reg.Counter("uei_pool_shards_total")
	p.hUtil = reg.Histogram("uei_pool_utilization", []float64{0.1, 0.25, 0.5, 0.75, 0.9, 1})
	p.gWorkers.SetInt(int64(p.workers))
}

func (p *Pool) worker() {
	for fn := range p.tasks {
		fn()
	}
}

// Close shuts the worker goroutines down. It is idempotent; a closed pool
// must not be used again.
func (p *Pool) Close() {
	p.once.Do(func() {
		if p.tasks != nil {
			close(p.tasks)
		}
	})
}

// Do splits [0, n) into up to Workers contiguous shards and runs fn on each
// concurrently, blocking until all shards finish. Shards never overlap, so
// fn may write to disjoint ranges of shared slices without locking. The
// first error (lowest shard index) wins; a canceled ctx short-circuits
// dispatch and is returned as ctx.Err(). With one worker (or n small) fn
// runs inline, making the serial path identical to a plain loop.
func (p *Pool) Do(ctx context.Context, n int, fn func(lo, hi int) error) error {
	if n <= 0 {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	shards := min(p.workers, n)
	if shards <= 1 || p.tasks == nil {
		err := fn(0, n)
		p.observe(1, 0, 0)
		return err
	}

	errs := make([]error, shards)
	var busyNanos atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for s := 0; s < shards; s++ {
		lo := s * n / shards
		hi := (s + 1) * n / shards
		s := s
		wg.Add(1)
		p.tasks <- func() {
			defer wg.Done()
			t0 := time.Now()
			errs[s] = fn(lo, hi)
			busyNanos.Add(int64(time.Since(t0)))
		}
	}
	wg.Wait()
	wall := time.Since(start)
	p.observe(shards, busyNanos.Load(), wall.Nanoseconds())
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return ctx.Err()
}

// observe records one Do call against the pool's instruments.
func (p *Pool) observe(shards int, busyNanos, wallNanos int64) {
	p.mRuns.Inc()
	p.mShards.Add(int64(shards))
	if wallNanos > 0 && p.workers > 0 {
		p.hUtil.Observe(float64(busyNanos) / (float64(wallNanos) * float64(p.workers)))
	}
}

// String describes the pool for diagnostics.
func (p *Pool) String() string { return fmt.Sprintf("pool(%d workers)", p.workers) }
