package iothrottle

import (
	"sync"
	"testing"
	"time"
)

// fakeClock advances only when sleep is called, making throttle tests
// deterministic and instant.
type fakeClock struct {
	mu  sync.Mutex
	t   time.Time
	nap time.Duration
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) sleep(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
	c.nap += d
}

func TestNilLimiterIsNoop(t *testing.T) {
	var l *Limiter
	l.Acquire(1 << 30) // must not panic or block
	if b, w := l.Stats(); b != 0 || w != 0 {
		t.Error("nil limiter stats should be zero")
	}
	if r := l.BytesPerSecond(); r != 0 {
		t.Errorf("nil limiter BytesPerSecond = %d, want 0", r)
	}
	l.Reset()
	if r := New(64 << 20).BytesPerSecond(); r != 64<<20 {
		t.Errorf("BytesPerSecond = %d, want %d", r, 64<<20)
	}
}

func TestNewPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(0)
}

func TestBurstIsFree(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	l := NewWithClock(1000, clk.now, clk.sleep)
	l.Acquire(1000) // exactly one burst: no sleeping needed
	if clk.nap != 0 {
		t.Errorf("slept %v for an in-burst acquire", clk.nap)
	}
}

func TestSustainedRate(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	l := NewWithClock(1000, clk.now, clk.sleep) // 1000 B/s
	l.Acquire(1000)                             // drain burst
	l.Acquire(500)                              // should cost ~0.5 s
	if clk.nap < 400*time.Millisecond || clk.nap > 600*time.Millisecond {
		t.Errorf("slept %v, want ~500ms", clk.nap)
	}
}

func TestLargerThanBurstRequest(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	l := NewWithClock(100, clk.now, clk.sleep)
	done := make(chan struct{})
	go func() {
		l.Acquire(1000) // 10 bursts
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Acquire larger than burst deadlocked")
	}
	// 1000 bytes at 100 B/s with a free 100-byte burst: ~9 s of sleeping.
	if clk.nap < 8*time.Second || clk.nap > 10*time.Second {
		t.Errorf("slept %v, want ~9s of virtual time", clk.nap)
	}
}

func TestStatsAndReset(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	l := NewWithClock(1000, clk.now, clk.sleep)
	l.Acquire(1500)
	bytes, waited := l.Stats()
	if bytes != 1500 {
		t.Errorf("bytes = %d", bytes)
	}
	if waited == 0 {
		t.Error("expected some recorded wait")
	}
	l.Reset()
	if b, w := l.Stats(); b != 0 || w != 0 {
		t.Error("Reset did not clear stats")
	}
	// After reset the bucket is full again: a burst-sized acquire is free.
	before := clk.nap
	l.Acquire(1000)
	if clk.nap != before {
		t.Error("Reset did not refill the bucket")
	}
}

func TestAcquireZeroAndNegative(t *testing.T) {
	l := New(10)
	l.Acquire(0)
	l.Acquire(-5)
	if b, _ := l.Stats(); b != 0 {
		t.Errorf("non-positive acquires should not count, got %d", b)
	}
}

func TestConcurrentAcquires(t *testing.T) {
	// Real clock but high bandwidth: verifies no races or lost updates.
	l := New(1 << 30)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				l.Acquire(1024)
			}
		}()
	}
	wg.Wait()
	if b, _ := l.Stats(); b != 8*100*1024 {
		t.Errorf("bytes = %d, want %d", b, 8*100*1024)
	}
}
