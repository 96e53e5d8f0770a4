package server

import (
	"fmt"
	"sync"

	"github.com/uei-db/uei/internal/memcache"
	"github.com/uei-db/uei/internal/obs"
)

// Arbiter partitions one global memory budget across live sessions. Every
// live session holds an equal share (total / live); shares are recomputed
// when a session is admitted or released, and the change is pushed into
// each session's memcache.Budget with Resize. Shrinking a share below a
// session's current usage is deliberate: the budget refuses further
// reservations until the session's next region swap drains it (region
// installs truncate to fit), so rebalancing never evicts data mid-iteration
// — it converts memory pressure into backpressure.
//
// Admission fails (ErrSaturated) once the session cap is reached or equal
// shares would drop below the configured minimum: a session that cannot
// hold a useful sample plus a region slice would thrash, so it is cheaper
// to make the client wait.
//
// An attached block cache (AttachCache) participates in the same ledger:
// its target share is carved off the top before sessions split the rest,
// but sessions outrank it — whenever equal session shares would fall below
// the minimum, the cache share shrinks (down to zero) to keep admission
// capacity unchanged. Admission viability is therefore still total/(n+1)
// >= min: a full house squeezes the cache out entirely rather than
// rejecting a session the budget could carry.
//
// The Arbiter owns its own leaf mutex and calls only Budget.Resize (itself
// a leaf) while holding it, so it can be invoked from any manager or
// session context without lock-ordering concerns.
type Arbiter struct {
	mu      sync.Mutex
	total   int64
	min     int64
	max     int
	grants  map[string]int64
	budgets map[string]*memcache.Budget

	cache       cacheResizer
	cacheTarget int64
	cacheShare  int64

	gShare *obs.Gauge
	gLive  *obs.Gauge
	gCache *obs.Gauge
}

// cacheResizer is the slice of blockcache.Cache the arbiter drives; an
// interface keeps server from depending on the cache's value type.
type cacheResizer interface {
	Resize(capacity int64) error
}

// NewArbiter builds an arbiter over a total byte budget with a minimum
// viable per-session share, admitting at most max sessions.
func NewArbiter(total, min int64, max int, reg *obs.Registry) (*Arbiter, error) {
	if total <= 0 {
		return nil, fmt.Errorf("server: arbiter total budget %d must be positive", total)
	}
	if min <= 0 || min > total {
		return nil, fmt.Errorf("server: arbiter minimum share %d must be in (0, %d]", min, total)
	}
	if max <= 0 {
		return nil, fmt.Errorf("server: arbiter session cap %d must be positive", max)
	}
	a := &Arbiter{
		total:   total,
		min:     min,
		max:     max,
		grants:  make(map[string]int64),
		budgets: make(map[string]*memcache.Budget),
		gShare:  reg.Gauge("uei_server_budget_share_bytes"),
		gLive:   reg.Gauge("uei_server_sessions_live"),
		gCache:  reg.Gauge("uei_server_block_cache_share_bytes"),
	}
	a.gShare.SetInt(total)
	return a, nil
}

// AttachCache registers the shared block cache with its target share. The
// target must leave room for at least one minimum session share; the
// effective share at any moment may be smaller (sessions outrank the
// cache) and is pushed into the cache via Resize on every rebalance.
func (a *Arbiter) AttachCache(c cacheResizer, target int64) error {
	if c == nil {
		return fmt.Errorf("server: nil cache attached to arbiter")
	}
	if target <= 0 || target > a.total-a.min {
		return fmt.Errorf("server: cache target %d must be in (0, %d] to leave one viable session share",
			target, a.total-a.min)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.cache = c
	a.cacheTarget = target
	a.rebalanceLocked()
	return nil
}

// Admit reserves an equal share for a new session and shrinks every other
// live session's share to make room. It fails with ErrSaturated when the
// session cap is reached or the resulting share would be below the viable
// minimum.
func (a *Arbiter) Admit(id string) (int64, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if _, ok := a.grants[id]; ok {
		return 0, fmt.Errorf("server: session %s is already admitted", id)
	}
	if n := len(a.grants); n >= a.max {
		return 0, fmt.Errorf("server: %d live sessions (cap %d): %w", n, a.max, ErrSaturated)
	}
	if share := a.total / int64(len(a.grants)+1); share < a.min {
		return 0, fmt.Errorf("server: admitting session %s would shrink per-session budgets to %d bytes (min %d): %w",
			id, share, a.min, ErrSaturated)
	}
	a.grants[id] = 0 // placeholder; rebalance assigns the real share
	a.rebalanceLocked()
	return a.grants[id], nil
}

// Attach registers the session's budget so later rebalances reach it, and
// snaps it to the current grant.
func (a *Arbiter) Attach(id string, b *memcache.Budget) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	grant, ok := a.grants[id]
	if !ok {
		return fmt.Errorf("server: attach before admit for session %s", id)
	}
	a.budgets[id] = b
	return b.Resize(grant)
}

// Release returns the session's share to the pool and grows the remaining
// sessions' shares.
func (a *Arbiter) Release(id string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if _, ok := a.grants[id]; !ok {
		return
	}
	delete(a.grants, id)
	delete(a.budgets, id)
	a.rebalanceLocked()
}

// Grant returns the session's current share (0 if not admitted).
func (a *Arbiter) Grant(id string) int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.grants[id]
}

// Sessions returns the number of admitted sessions.
func (a *Arbiter) Sessions() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.grants)
}

// rebalanceLocked recomputes the cache share and equal session shares, and
// pushes both into their budgets. The cache gets its target share off the
// top unless equal session shares would then fall below the minimum, in
// which case it is squeezed down to whatever the sessions leave (possibly
// zero — the cache's own Resize clamps that to an effectively-disabled one
// byte). Budget.Resize only fails on non-positive capacity, which the
// admission minimum rules out for session shares.
func (a *Arbiter) rebalanceLocked() {
	n := int64(len(a.grants))
	a.gLive.SetInt(n)
	cacheShare := int64(0)
	if a.cache != nil {
		cacheShare = a.cacheTarget
		if n > 0 && (a.total-cacheShare)/n < a.min {
			cacheShare = a.total - n*a.min
			if cacheShare < 0 {
				cacheShare = 0
			}
		}
	}
	if n == 0 {
		a.gShare.SetInt(a.total - cacheShare)
	} else {
		share := (a.total - cacheShare) / n
		for id := range a.grants {
			a.grants[id] = share
			if b := a.budgets[id]; b != nil {
				_ = b.Resize(share)
			}
		}
		a.gShare.SetInt(share)
	}
	if a.cache != nil && cacheShare != a.cacheShare {
		// Growing the session shares first and shrinking the cache second
		// (or vice versa) is safe: the cache's Resize evicts down to the
		// new capacity itself, and transient over-commitment only delays
		// reservations, never loses data.
		_ = a.cache.Resize(cacheShare)
	}
	a.cacheShare = cacheShare
	a.gCache.SetInt(cacheShare)
}
