package blockcache

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/uei-db/uei/internal/memcache"
	"github.com/uei-db/uei/internal/obs"
)

func newCache(t testing.TB, capacity int64) *Cache[string] {
	t.Helper()
	b, err := memcache.NewBudget(capacity)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New[string](b)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// constLoad returns a loader producing val with the given size and
// counting its invocations.
func constLoad(val string, size int64, calls *atomic.Int64) LoadFunc[string] {
	return func(context.Context) (string, int64, error) {
		if calls != nil {
			calls.Add(1)
		}
		return val, size, nil
	}
}

func TestHitMissAndSharing(t *testing.T) {
	c := newCache(t, 1000)
	ctx := context.Background()
	var calls atomic.Int64
	v, err := c.GetOrLoad(ctx, "a", constLoad("va", 10, &calls))
	if err != nil || v != "va" {
		t.Fatalf("GetOrLoad = %q, %v", v, err)
	}
	v, err = c.GetOrLoad(ctx, "a", constLoad("never", 10, &calls))
	if err != nil || v != "va" {
		t.Fatalf("second GetOrLoad = %q, %v", v, err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("loader ran %d times, want 1", got)
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.ResidentBytes != 10 || s.ResidentLen != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestSieveEvictionPrefersUnvisited(t *testing.T) {
	c := newCache(t, 30) // fits three 10-byte values
	ctx := context.Background()
	for _, k := range []string{"a", "b", "c"} {
		if _, err := c.GetOrLoad(ctx, k, constLoad("v"+k, 10, nil)); err != nil {
			t.Fatal(err)
		}
	}
	// Touch a and c: their visited bits protect them for one sweep.
	for _, k := range []string{"a", "c"} {
		if _, err := c.GetOrLoad(ctx, k, constLoad("x", 10, nil)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.GetOrLoad(ctx, "d", constLoad("vd", 10, nil)); err != nil {
		t.Fatal(err)
	}
	if c.Contains("b") {
		t.Fatal("b (unvisited) survived while visited entries were evictable")
	}
	for _, k := range []string{"a", "c", "d"} {
		if !c.Contains(k) {
			t.Fatalf("%s evicted, want resident", k)
		}
	}
	if s := c.Stats(); s.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", s.Evictions)
	}
}

func TestOversizedValueNotCached(t *testing.T) {
	c := newCache(t, 50)
	ctx := context.Background()
	if _, err := c.GetOrLoad(ctx, "a", constLoad("va", 10, nil)); err != nil {
		t.Fatal(err)
	}
	v, err := c.GetOrLoad(ctx, "big", constLoad("huge", 500, nil))
	if err != nil || v != "huge" {
		t.Fatalf("oversized load = %q, %v", v, err)
	}
	if c.Contains("big") {
		t.Fatal("oversized value should not be resident")
	}
	if c.Len() != 0 {
		// The failed fit evicted everything while trying; that is the
		// documented cost of an oversized load.
		t.Fatalf("len = %d after oversized insert attempt", c.Len())
	}
}

func TestResizeShrinkEvicts(t *testing.T) {
	c := newCache(t, 100)
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		k := fmt.Sprintf("k%d", i)
		if _, err := c.GetOrLoad(ctx, k, constLoad(k, 20, nil)); err != nil {
			t.Fatal(err)
		}
	}
	if c.Stats().ResidentBytes != 100 {
		t.Fatalf("resident = %d, want 100", c.Stats().ResidentBytes)
	}
	if err := c.Resize(40); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().ResidentBytes; got > 40 {
		t.Fatalf("resident = %d after shrink to 40", got)
	}
	if got := c.budget.Capacity(); got != 40 {
		t.Fatalf("capacity = %d, want 40", got)
	}
	// Growing back does not resurrect anything but accepts new entries.
	if err := c.Resize(100); err != nil {
		t.Fatal(err)
	}
	if _, err := c.GetOrLoad(ctx, "new", constLoad("new", 20, nil)); err != nil {
		t.Fatal(err)
	}
	if !c.Contains("new") {
		t.Fatal("new entry not resident after grow")
	}
}

func TestResizeBelowOneDisables(t *testing.T) {
	c := newCache(t, 100)
	ctx := context.Background()
	if _, err := c.GetOrLoad(ctx, "a", constLoad("va", 10, nil)); err != nil {
		t.Fatal(err)
	}
	if err := c.Resize(0); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 0 {
		t.Fatalf("len = %d after resize to zero", c.Len())
	}
	if _, err := c.GetOrLoad(ctx, "b", constLoad("vb", 10, nil)); err != nil {
		t.Fatal(err)
	}
	if c.Contains("b") {
		t.Fatal("value cached while effectively disabled")
	}
}

func TestFlush(t *testing.T) {
	c := newCache(t, 100)
	ctx := context.Background()
	for i := 0; i < 4; i++ {
		k := fmt.Sprintf("k%d", i)
		if _, err := c.GetOrLoad(ctx, k, constLoad(k, 10, nil)); err != nil {
			t.Fatal(err)
		}
	}
	c.Flush()
	if c.Len() != 0 || c.Stats().ResidentBytes != 0 {
		t.Fatalf("len=%d resident=%d after flush", c.Len(), c.Stats().ResidentBytes)
	}
}

func TestLoadErrorNotCachedAndRetried(t *testing.T) {
	c := newCache(t, 100)
	ctx := context.Background()
	boom := errors.New("boom")
	_, err := c.GetOrLoad(ctx, "a", func(context.Context) (string, int64, error) {
		return "", 0, boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if c.Contains("a") {
		t.Fatal("failed load cached")
	}
	v, err := c.GetOrLoad(ctx, "a", constLoad("ok", 10, nil))
	if err != nil || v != "ok" {
		t.Fatalf("retry = %q, %v", v, err)
	}
}

func TestSingleFlightCoalesces(t *testing.T) {
	c := newCache(t, 1000)
	ctx := context.Background()
	const waiters = 64
	var calls atomic.Int64
	release := make(chan struct{})
	started := make(chan struct{})
	var once sync.Once

	var wg sync.WaitGroup
	results := make([]string, waiters)
	errs := make([]error, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := c.GetOrLoad(ctx, "hot", func(context.Context) (string, int64, error) {
				calls.Add(1)
				once.Do(func() { close(started) })
				<-release
				return "shared", 8, nil
			})
			results[i], errs[i] = v, err
		}(i)
	}
	<-started
	close(release)
	wg.Wait()
	for i := range results {
		if errs[i] != nil || results[i] != "shared" {
			t.Fatalf("waiter %d: %q, %v", i, results[i], errs[i])
		}
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("loader ran %d times, want 1", got)
	}
	s := c.Stats()
	if s.Misses != 1 {
		t.Fatalf("misses = %d, want 1", s.Misses)
	}
	// Every non-leader either joined the in-flight load (coalesced) or
	// arrived after it completed (hit); none may have loaded again.
	if s.Coalesced+s.Hits != waiters-1 {
		t.Fatalf("coalesced %d + hits %d != %d", s.Coalesced, s.Hits, waiters-1)
	}
}

func TestWaiterSurvivesLeaderCancellation(t *testing.T) {
	c := newCache(t, 1000)
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	inLoad := make(chan struct{})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, err := c.GetOrLoad(leaderCtx, "k", func(ctx context.Context) (string, int64, error) {
			close(inLoad)
			<-ctx.Done()
			return "", 0, ctx.Err()
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("leader err = %v, want canceled", err)
		}
	}()
	<-inLoad

	wg.Add(1)
	var waiterVal string
	var waiterErr error
	waiterJoined := make(chan struct{})
	go func() {
		defer wg.Done()
		// This loader only runs on the retry after the leader's
		// cancellation propagates.
		waiterVal, waiterErr = c.GetOrLoad(context.Background(), "k",
			func(context.Context) (string, int64, error) {
				return "recovered", 4, nil
			})
		close(waiterJoined)
	}()
	cancelLeader()
	<-waiterJoined
	wg.Wait()
	if waiterErr != nil || waiterVal != "recovered" {
		t.Fatalf("waiter = %q, %v; want recovered", waiterVal, waiterErr)
	}
}

func TestWaiterContextCancellation(t *testing.T) {
	c := newCache(t, 1000)
	inLoad := make(chan struct{})
	release := make(chan struct{})
	defer close(release)

	go func() {
		_, _ = c.GetOrLoad(context.Background(), "k", func(context.Context) (string, int64, error) {
			close(inLoad)
			<-release
			return "v", 1, nil
		})
	}()
	<-inLoad
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := c.GetOrLoad(ctx, "k", constLoad("x", 1, nil))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("waiter err = %v, want canceled", err)
	}
}

func TestInstrumentedCounters(t *testing.T) {
	c := newCache(t, 100)
	reg := obs.NewRegistry()
	c.Instrument(reg)
	ctx := context.Background()
	if _, err := c.GetOrLoad(ctx, "a", constLoad("va", 10, nil)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.GetOrLoad(ctx, "a", constLoad("va", 10, nil)); err != nil {
		t.Fatal(err)
	}
	s := reg.Snapshot()
	if s.Counters["blockcache_hits_total"] != 1 || s.Counters["blockcache_misses_total"] != 1 {
		t.Fatalf("counters = %v", s.Counters)
	}
	if s.Gauges["blockcache_resident_bytes"] != 10 || s.Gauges["blockcache_resident_chunks"] != 1 {
		t.Fatalf("gauges = %v", s.Gauges)
	}
}

// TestConcurrentStress hammers a small cache from many goroutines with a
// key space larger than capacity, so hits, misses, coalesced waits,
// evictions, and resizes all interleave. Run with -race.
func TestConcurrentStress(t *testing.T) {
	c := newCache(t, 200) // fits ~5 of 16 keys
	ctx := context.Background()
	const (
		goroutines = 16
		iters      = 300
		keys       = 16
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				k := fmt.Sprintf("k%d", (g*7+i)%keys)
				v, err := c.GetOrLoad(ctx, k, constLoad("v-"+k, 40, nil))
				if err != nil {
					t.Errorf("GetOrLoad(%s): %v", k, err)
					return
				}
				if v != "v-"+k {
					t.Errorf("GetOrLoad(%s) = %q", k, v)
					return
				}
				if i%100 == 50 {
					_ = c.Resize(int64(100 + (g*i)%200))
				}
			}
		}(g)
	}
	wg.Wait()
	if got := c.Stats().ResidentBytes; got > c.budget.Capacity() {
		t.Fatalf("resident %d exceeds capacity %d", got, c.budget.Capacity())
	}
}
