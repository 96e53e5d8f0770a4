// Package iothrottle provides a token-bucket bandwidth limiter that both
// storage engines (the UEI chunk store and the DBMS heap file) share so the
// out-of-core experiments model secondary-storage bandwidth honestly at
// laptop scale. See DESIGN.md §3: at the paper's scale the 40 GB dataset
// streams from an NVMe SSD at ~3.4 GB/s; at our scaled-down size the OS page
// cache would hide that cost entirely, so we meter reads explicitly and
// identically for every scheme.
package iothrottle

import (
	"fmt"
	"sync"
	"time"
)

// Limiter meters read bandwidth with a token bucket. A nil *Limiter is a
// valid no-op limiter, so components can hold one unconditionally.
type Limiter struct {
	mu sync.Mutex
	// bytesPerSecond is the sustained budget.
	bytesPerSecond float64
	// burst is the bucket capacity in bytes.
	burst float64
	// tokens is the current bucket level.
	tokens float64
	// last is the previous refill time.
	last time.Time
	// now and sleep are injectable for tests.
	now   func() time.Time
	sleep func(time.Duration)

	totalBytes int64
	totalWait  time.Duration
}

// New returns a limiter with the given sustained bandwidth. Burst defaults
// to one second's budget. New panics if bytesPerSecond is not positive; use
// a nil *Limiter for "unlimited".
func New(bytesPerSecond int64) *Limiter {
	if bytesPerSecond <= 0 {
		panic(fmt.Sprintf("iothrottle: bandwidth must be positive, got %d", bytesPerSecond))
	}
	l := &Limiter{
		bytesPerSecond: float64(bytesPerSecond),
		burst:          float64(bytesPerSecond),
		tokens:         float64(bytesPerSecond),
		now:            time.Now,
		sleep:          time.Sleep,
	}
	l.last = l.now()
	return l
}

// NewWithClock is New with an injectable clock, for deterministic tests.
func NewWithClock(bytesPerSecond int64, now func() time.Time, sleep func(time.Duration)) *Limiter {
	l := New(bytesPerSecond)
	l.now = now
	l.sleep = sleep
	l.last = now()
	return l
}

// Acquire blocks until n bytes of budget are available and consumes them.
// Calling Acquire on a nil limiter returns immediately. Requests larger
// than the burst are served in burst-sized installments rather than
// deadlocking.
func (l *Limiter) Acquire(n int64) {
	if l == nil || n <= 0 {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.totalBytes += n
	remaining := float64(n)
	for remaining > 0 {
		l.refillLocked()
		if l.tokens > 0 {
			take := l.tokens
			if take > remaining {
				take = remaining
			}
			l.tokens -= take
			remaining -= take
			continue
		}
		// Sleep long enough to earn the smaller of (remaining, burst).
		need := remaining
		if need > l.burst {
			need = l.burst
		}
		wait := time.Duration(need / l.bytesPerSecond * float64(time.Second))
		if wait <= 0 {
			wait = time.Microsecond
		}
		l.totalWait += wait
		l.sleep(wait)
	}
}

// BytesPerSecond returns the sustained budget New was given, or 0 for a nil
// (unlimited) limiter.
func (l *Limiter) BytesPerSecond() int64 {
	if l == nil {
		return 0
	}
	return int64(l.bytesPerSecond)
}

// Stats returns the total bytes metered and the total time spent waiting.
func (l *Limiter) Stats() (bytes int64, waited time.Duration) {
	if l == nil {
		return 0, 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.totalBytes, l.totalWait
}

// Reset refills the bucket and zeroes statistics; used between experiment
// phases so build-time I/O does not bill against exploration-time budgets.
func (l *Limiter) Reset() {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.tokens = l.burst
	l.last = l.now()
	l.totalBytes = 0
	l.totalWait = 0
}

func (l *Limiter) refillLocked() {
	now := l.now()
	elapsed := now.Sub(l.last).Seconds()
	if elapsed <= 0 {
		return
	}
	l.last = now
	l.tokens += elapsed * l.bytesPerSecond
	if l.tokens > l.burst {
		l.tokens = l.burst
	}
}
