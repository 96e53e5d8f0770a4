// Package blockcache is a budget-accounted, concurrency-safe cache of
// decoded chunks. It sits between the chunk store's disk/CRC/decode path
// and every consumer (session views, ordered chunk reads, the
// prefetcher) so that a hot chunk is read from secondary storage and
// decoded at most once no matter how many concurrent sessions want it —
// the multi-session analogue of the §3.1 observation that per-iteration
// latency is dominated by rebuilding cells from disk-resident chunks.
//
// Three mechanisms keep the hot path cheap:
//
//   - SIEVE eviction (a CLOCK variant): hits only flip a visited bit, so
//     there is no per-hit list surgery the way LRU requires; the eviction
//     hand sweeps from the oldest entry toward the newest, clearing
//     visited bits and removing the first unvisited entry it meets.
//   - Single-flight loads: concurrent misses for the same key share one
//     disk read. The first caller becomes the leader; the rest wait on its
//     result. A leader that fails with its own context's cancellation does
//     not poison the waiters — any waiter whose context is still live
//     retries the load itself.
//   - A memcache.Budget ledger: every resident value is reserved against a
//     byte budget, which the serving layer's arbiter can Resize alongside
//     session shares; shrinking evicts immediately, so the cache yields
//     memory to sessions under admission pressure and reclaims it later.
//
// Values are shared by reference between all callers: anything returned by
// GetOrLoad must be treated as immutable.
package blockcache

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/uei-db/uei/internal/memcache"
	"github.com/uei-db/uei/internal/obs"
)

// LoadFunc produces the value for a missing key plus its resident byte
// size (the amount reserved against the cache budget while it stays
// cached). It runs outside the cache lock.
type LoadFunc[V any] func(ctx context.Context) (V, int64, error)

// Cache is a SIEVE-evicting, single-flight, byte-budgeted cache. The zero
// value is not usable; construct with New.
type Cache[V any] struct {
	mu      sync.Mutex
	budget  *memcache.Budget
	entries map[string]*node[V]
	// head is the most recently inserted entry, tail the oldest; hand is
	// SIEVE's eviction cursor, sweeping tail -> head and wrapping.
	head, tail, hand *node[V]
	flights          map[string]*flight[V]

	// Cumulative activity counters (atomics, so Stats is lock-free and
	// callable from metrics endpoints while loads are in flight).
	hits      atomic.Int64
	misses    atomic.Int64
	coalesced atomic.Int64
	evictions atomic.Int64

	// Observability instruments (nil until Instrument; nil-safe no-ops).
	mHits     *obs.Counter
	mMisses   *obs.Counter
	mEvict    *obs.Counter
	mCoalesce *obs.Counter
	gBytes    *obs.Gauge
	gChunks   *obs.Gauge
}

// node is one resident entry on the SIEVE list.
type node[V any] struct {
	key        string
	val        V
	size       int64
	visited    bool
	prev, next *node[V] // prev is toward head (newer), next toward tail (older)
}

// flight is one in-progress load other callers can wait on.
type flight[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// New builds a cache over the given byte-budget ledger. The ledger must be
// private to the cache: eviction assumes every reserved byte is one the
// cache itself can release.
func New[V any](budget *memcache.Budget) (*Cache[V], error) {
	if budget == nil {
		return nil, fmt.Errorf("blockcache: nil budget")
	}
	return &Cache[V]{
		budget:  budget,
		entries: make(map[string]*node[V]),
		flights: make(map[string]*flight[V]),
	}, nil
}

// Instrument registers the cache's metrics: blockcache_hits_total,
// blockcache_misses_total, blockcache_evictions_total,
// blockcache_coalesced_total (misses that shared another caller's
// in-flight read), and the residency gauges blockcache_resident_bytes and
// blockcache_resident_chunks.
func (c *Cache[V]) Instrument(reg *obs.Registry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.mHits = reg.Counter("blockcache_hits_total")
	c.mMisses = reg.Counter("blockcache_misses_total")
	c.mEvict = reg.Counter("blockcache_evictions_total")
	c.mCoalesce = reg.Counter("blockcache_coalesced_total")
	c.gBytes = reg.Gauge("blockcache_resident_bytes")
	c.gChunks = reg.Gauge("blockcache_resident_chunks")
	c.gBytes.SetInt(c.budget.Used())
	c.gChunks.SetInt(int64(len(c.entries)))
}

// getStats records how one GetOrLoad was served, for span annotation.
type getStats struct {
	hit       bool
	coalesced bool
}

// GetOrLoad returns the cached value for key, or loads it with load. All
// concurrent callers missing on the same key share one load; a canceled
// ctx aborts the wait (and an owned load) with ctx.Err(). The returned
// value is shared with every other caller and must not be mutated.
//
// On a traced context the lookup is wrapped in a "bcache_get" span with
// outcome hit/miss/error (a coalesced miss carries the coalesced attr);
// the load callback then runs under that span, so the disk read it
// triggers nests beneath it in the trace.
func (c *Cache[V]) GetOrLoad(ctx context.Context, key string, load LoadFunc[V]) (V, error) {
	if obs.SpanFromContext(ctx) == nil {
		return c.getOrLoad(ctx, key, load, nil)
	}
	sctx, span := obs.StartSpan(ctx, "bcache_get")
	var st getStats
	v, err := c.getOrLoad(sctx, key, load, &st)
	switch {
	case err != nil:
		span.SetOutcome("error")
	case st.hit:
		span.SetOutcome("hit")
	default:
		span.SetOutcome("miss")
	}
	var attrs map[string]float64
	if st.coalesced {
		attrs = map[string]float64{"coalesced": 1}
	}
	span.End(attrs)
	return v, err
}

// getOrLoad is the untraced core of GetOrLoad. st, when non-nil, records
// how the call was served.
func (c *Cache[V]) getOrLoad(ctx context.Context, key string, load LoadFunc[V], st *getStats) (V, error) {
	var zero V
	for {
		c.mu.Lock()
		if n, ok := c.entries[key]; ok {
			n.visited = true
			v := n.val
			c.mu.Unlock()
			c.hits.Add(1)
			c.mHits.Inc()
			if st != nil {
				st.hit = true
			}
			return v, nil
		}
		if f, ok := c.flights[key]; ok {
			c.mu.Unlock()
			c.coalesced.Add(1)
			c.mCoalesce.Inc()
			if st != nil {
				st.coalesced = true
			}
			select {
			case <-f.done:
			case <-ctx.Done():
				return zero, ctx.Err()
			}
			if f.err == nil {
				return f.val, nil
			}
			if err := ctx.Err(); err != nil {
				return zero, err
			}
			// The leader's failure may be private to its own context (it
			// was canceled while we were not); retry the load ourselves
			// rather than inheriting its cancellation.
			if errors.Is(f.err, context.Canceled) || errors.Is(f.err, context.DeadlineExceeded) {
				continue
			}
			return zero, f.err
		}
		f := &flight[V]{done: make(chan struct{})}
		c.flights[key] = f
		c.mu.Unlock()

		c.misses.Add(1)
		c.mMisses.Inc()
		v, size, err := load(ctx)
		f.val, f.err = v, err
		// Removing the flight and inserting the value happen under one
		// lock acquisition so no caller can slip between them and start a
		// duplicate load for a value that is about to be resident.
		c.mu.Lock()
		delete(c.flights, key)
		if err == nil {
			c.insertLocked(key, v, size)
		}
		c.mu.Unlock()
		close(f.done)
		if err != nil {
			return zero, err
		}
		return v, nil
	}
}

// insertLocked makes a loaded value resident, evicting until its byte size
// fits the budget. A value larger than the entire budget is simply not
// cached — the load already served the caller.
func (c *Cache[V]) insertLocked(key string, v V, size int64) {
	if _, ok := c.entries[key]; ok {
		return
	}
	if size < 0 {
		size = 0
	}
	for c.budget.Reserve(size) != nil {
		if !c.evictOneLocked() {
			return
		}
	}
	n := &node[V]{key: key, val: v, size: size}
	n.next = c.head
	if c.head != nil {
		c.head.prev = n
	}
	c.head = n
	if c.tail == nil {
		c.tail = n
	}
	c.entries[key] = n
	c.publishResidencyLocked()
}

// evictOneLocked runs one step of the SIEVE hand: starting at the cursor
// (or the oldest entry), clear visited bits until an unvisited entry is
// found, and evict it. Returns false when the cache is empty.
func (c *Cache[V]) evictOneLocked() bool {
	if len(c.entries) == 0 {
		return false
	}
	n := c.hand
	if n == nil {
		n = c.tail
	}
	for n.visited {
		n.visited = false
		n = n.prev
		if n == nil {
			n = c.tail
		}
	}
	c.hand = n.prev // may be nil: the hand wraps to the tail next sweep
	c.removeLocked(n)
	c.evictions.Add(1)
	c.mEvict.Inc()
	return true
}

// removeLocked unlinks a node and returns its bytes to the budget.
func (c *Cache[V]) removeLocked(n *node[V]) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		c.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		c.tail = n.prev
	}
	if c.hand == n {
		c.hand = n.prev
	}
	delete(c.entries, n.key)
	c.budget.Release(n.size)
	c.publishResidencyLocked()
}

// publishResidencyLocked refreshes the residency gauges.
func (c *Cache[V]) publishResidencyLocked() {
	c.gBytes.SetInt(c.budget.Used())
	c.gChunks.SetInt(int64(len(c.entries)))
}

// Resize changes the cache's byte capacity in place and evicts immediately
// until residency fits — this is how the serving layer's arbiter grows and
// shrinks the cache's share alongside session budgets. Capacities below
// one byte clamp to one, which empties the cache and effectively disables
// it until the next grow.
func (c *Cache[V]) Resize(capacity int64) error {
	if capacity < 1 {
		capacity = 1
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.budget.Resize(capacity); err != nil {
		return err
	}
	for c.budget.Available() < 0 {
		if !c.evictOneLocked() {
			break
		}
	}
	return nil
}

// Flush evicts every resident entry (in-flight loads are unaffected).
func (c *Cache[V]) Flush() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.evictOneLocked() {
	}
}

// Contains reports whether key is resident (without touching its visited
// bit; for tests and diagnostics).
func (c *Cache[V]) Contains(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.entries[key]
	return ok
}

// Len returns the number of resident entries.
func (c *Cache[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Stats is a point-in-time summary of cache activity.
type Stats struct {
	Hits          int64
	Misses        int64
	Coalesced     int64
	Evictions     int64
	ResidentBytes int64
	ResidentLen   int
}

// Stats snapshots the activity counters. Safe concurrent with loads.
func (c *Cache[V]) Stats() Stats {
	c.mu.Lock()
	n := len(c.entries)
	c.mu.Unlock()
	return Stats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Coalesced:     c.coalesced.Load(),
		Evictions:     c.evictions.Load(),
		ResidentBytes: c.budget.Used(),
		ResidentLen:   n,
	}
}
