// Package memcache implements UEI's in-memory data management (§3.1
// components 3-4 and §3.2): a hard byte budget standing in for the
// experiment's restricted memory footprint (~1% of the dataset), a uniform
// row-id sampler for the unlabeled cache U (Algorithm 2 line 12), and the
// cache itself, which holds the uniform sample plus at most one loaded
// uncertain region at a time (more under SetMaxRegions). The sample and
// each region are an ascending id slice beside a row slice — the order a
// cell load and the sample fetch deliver — so the engine's id-ordered
// candidate stream is a merge of a few sorted lists and a lookup is a
// binary search; nothing is sorted per step.
package memcache

import (
	"errors"
	"fmt"
	"sync"

	"github.com/uei-db/uei/internal/obs"
)

// ErrBudgetExceeded is returned when a reservation would push usage past
// the configured capacity.
var ErrBudgetExceeded = errors.New("memcache: memory budget exceeded")

// Budget is a thread-safe byte-budget ledger. The experiments use it to
// enforce the paper's "restricted the memory footprint ... to be within
// 400MB, ~1% of the entire dataset" constraint at scaled-down size.
type Budget struct {
	mu       sync.Mutex
	capacity int64
	used     int64
	peak     int64

	// Resident-bytes gauges (nil until Instrument; nil-safe no-ops).
	gUsed *obs.Gauge
	gPeak *obs.Gauge
	gCap  *obs.Gauge
}

// Instrument publishes the ledger as gauges: memcache_used_bytes and
// memcache_peak_bytes track reservations live, memcache_budget_bytes is
// the fixed capacity they are judged against.
func (b *Budget) Instrument(reg *obs.Registry) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.gUsed = reg.Gauge("memcache_used_bytes")
	b.gPeak = reg.Gauge("memcache_peak_bytes")
	b.gCap = reg.Gauge("memcache_budget_bytes")
	b.gCap.SetInt(b.capacity)
	b.gUsed.SetInt(b.used)
	b.gPeak.SetInt(b.peak)
}

// NewBudget creates a ledger with the given capacity in bytes.
func NewBudget(capacity int64) (*Budget, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("memcache: budget capacity %d must be positive", capacity)
	}
	return &Budget{capacity: capacity}, nil
}

// Reserve claims n bytes or fails with ErrBudgetExceeded without claiming
// anything.
func (b *Budget) Reserve(n int64) error {
	if n < 0 {
		return fmt.Errorf("memcache: negative reservation %d", n)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.used+n > b.capacity {
		return fmt.Errorf("%w: %d used + %d requested > %d capacity", ErrBudgetExceeded, b.used, n, b.capacity)
	}
	b.used += n
	if b.used > b.peak {
		b.peak = b.used
		b.gPeak.SetInt(b.peak)
	}
	b.gUsed.SetInt(b.used)
	return nil
}

// Release returns n bytes to the ledger. Releasing more than is used is a
// programming error and panics, because it means accounting has diverged
// from reality.
func (b *Budget) Release(n int64) {
	if n < 0 {
		panic(fmt.Sprintf("memcache: negative release %d", n))
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if n > b.used {
		panic(fmt.Sprintf("memcache: releasing %d bytes with only %d used", n, b.used))
	}
	b.used -= n
	b.gUsed.SetInt(b.used)
}

// Resize changes the ledger's capacity in place. Growing takes effect
// immediately. Shrinking below current usage is allowed and evicts
// nothing here: every further Reserve fails with ErrBudgetExceeded until
// usage drains under the new capacity — the backpressure the serving
// layer's arbiter relies on when it re-partitions one fixed global budget
// across a changing set of live sessions.
func (b *Budget) Resize(capacity int64) error {
	if capacity <= 0 {
		return fmt.Errorf("memcache: budget capacity %d must be positive", capacity)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.capacity = capacity
	b.gCap.SetInt(b.capacity)
	return nil
}

// Used returns the current usage in bytes.
func (b *Budget) Used() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.used
}

// Capacity returns the configured capacity in bytes.
func (b *Budget) Capacity() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.capacity
}

// Available returns the unreserved byte count.
func (b *Budget) Available() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.capacity - b.used
}

// Peak returns the high-water mark of usage, for experiment reports.
func (b *Budget) Peak() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.peak
}

// TupleBytes estimates the in-memory footprint of one cached tuple: the
// float64 payload plus map-entry and slice-header overhead. All cache
// accounting uses this single estimator so budgets are comparable across
// components.
func TupleBytes(dims int) int64 {
	const overhead = 48 // map bucket share + slice header + id
	return int64(dims)*8 + overhead
}
