package shard

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/uei-db/uei/internal/chunkstore"
	"github.com/uei-db/uei/internal/grid"
	"github.com/uei-db/uei/internal/learn"
)

// stubBackend is a scripted in-memory Backend for replication tests: it
// can answer instantly, fail, or block until its context is cancelled.
type stubBackend struct {
	scores []float64
	fail   error
	// delay holds the answer this long; cancellation wins the race.
	delay time.Duration
	// block holds the answer until cancellation.
	block bool

	calls     atomic.Int64
	cancelled chan struct{}
	once      sync.Once
}

func newStubBackend() *stubBackend {
	return &stubBackend{cancelled: make(chan struct{})}
}

func (s *stubBackend) wait(ctx context.Context) error {
	var delayC <-chan time.Time
	if !s.block {
		if s.delay == 0 {
			return nil
		}
		t := time.NewTimer(s.delay)
		defer t.Stop()
		delayC = t.C
	}
	select {
	case <-ctx.Done():
		s.once.Do(func() { close(s.cancelled) })
		return ctx.Err()
	case <-delayC:
		return nil
	}
}

func (s *stubBackend) ScoreAll(ctx context.Context, _ learn.Classifier, _ ScoreSpec) (ScoreResult, error) {
	s.calls.Add(1)
	if err := s.wait(ctx); err != nil {
		return ScoreResult{}, err
	}
	if s.fail != nil {
		return ScoreResult{}, s.fail
	}
	return ScoreResult{Scores: append([]float64(nil), s.scores...)}, nil
}

func (s *stubBackend) MostUncertain(_ context.Context, scores []float64, k int) ([]CellScore, error) {
	return nil, nil
}

func (s *stubBackend) LoadCell(ctx context.Context, _ grid.CellID) ([]uint32, [][]float64, int, error) {
	s.calls.Add(1)
	if err := s.wait(ctx); err != nil {
		return nil, nil, 0, err
	}
	if s.fail != nil {
		return nil, nil, 0, s.fail
	}
	return []uint32{1}, [][]float64{{0.5, 0.5}}, 1, nil
}

func (s *stubBackend) FetchRows(context.Context, []uint32) ([]chunkstore.MergedRow, error) {
	return nil, nil
}

func (s *stubBackend) Retrieve(context.Context, [][]bool) ([]RetrievedPart, int, error) {
	return nil, 0, nil
}

func (s *stubBackend) CostEstimate(context.Context, grid.CellID) (int64, int, error) {
	return 0, 0, nil
}

func (s *stubBackend) Stats() BackendStats { return BackendStats{} }
func (s *stubBackend) ResetIOStats()       {}

// stubManifest describes a tiny two-shard store whose grid exists only in
// memory; stub backends answer for the (nonexistent) data.
func stubManifest() *Manifest {
	return &Manifest{
		FormatVersion:  manifestFormatVersion,
		Shards:         2,
		SegmentsPerDim: 2,
		Hash:           hashName,
		Columns:        []string{"x", "y"},
		RowCount:       2,
		MinValues:      []float64{0, 0},
		MaxValues:      []float64{1, 1},
		ShardRowCounts: []int{1, 1},
	}
}

// stubCoordinator builds a coordinator over scripted backends and sizes
// each stub's score vector to its shard's owned-cell count.
func stubCoordinator(t *testing.T, replicas [][]Backend, opts CoordinatorOptions) *Coordinator {
	t.Helper()
	c, err := NewCoordinator(stubManifest(), replicas, opts)
	if err != nil {
		t.Fatal(err)
	}
	for s, reps := range replicas {
		for _, b := range reps {
			if st, ok := b.(*stubBackend); ok && st.scores == nil {
				st.scores = make([]float64, len(c.ownedCells[s]))
				for i := range st.scores {
					st.scores[i] = float64(s) + float64(i)/10
				}
			}
		}
	}
	return c
}

func stubUnc(c *Coordinator) []float64 {
	return make([]float64, c.Meta().Grid.NumCells())
}

// TestFailoverOnReplicaError: a failing primary falls over to the healthy
// replica with no degradation recorded.
func TestFailoverOnReplicaError(t *testing.T) {
	bad := newStubBackend()
	bad.fail = errors.New("injected")
	good := newStubBackend()
	other := newStubBackend()
	c := stubCoordinator(t, [][]Backend{{bad, good}, {other}}, CoordinatorOptions{})
	unc := stubUnc(c)
	degraded, err := c.ScoreAll(context.Background(), nil, unc)
	if err != nil {
		t.Fatal(err)
	}
	if len(degraded) != 0 {
		t.Fatalf("degraded = %v; failover should mask a single-replica failure", degraded)
	}
	if bad.calls.Load() != 1 || good.calls.Load() != 1 {
		t.Errorf("calls: bad %d, good %d; want 1 and 1", bad.calls.Load(), good.calls.Load())
	}
	for i, cell := range c.ownedCells[0] {
		if unc[cell] != good.scores[i] {
			t.Fatalf("unc[%d] = %v, want the surviving replica's score %v", cell, unc[cell], good.scores[i])
		}
	}
}

// TestReplicaExhaustedErrorChain: when every replica fails, the error is
// errors.Is-able for both ErrShardUnavailable and ErrReplicaExhausted and
// names the shard.
func TestReplicaExhaustedErrorChain(t *testing.T) {
	injected := errors.New("injected")
	bad1, bad2 := newStubBackend(), newStubBackend()
	bad1.fail, bad2.fail = injected, injected
	other := newStubBackend()
	c := stubCoordinator(t, [][]Backend{{bad1, bad2}, {other}}, CoordinatorOptions{})

	// Degradable path: the shard is skipped, not fatal.
	degraded, err := c.ScoreAll(context.Background(), nil, stubUnc(c))
	if err != nil {
		t.Fatal(err)
	}
	if len(degraded) != 1 || degraded[0] != 0 {
		t.Fatalf("degraded = %v, want [0]", degraded)
	}

	// Owner-routed path: the full chain surfaces.
	var cell grid.CellID = c.ownedCells[0][0]
	_, _, _, err = c.LoadCell(context.Background(), cell)
	if err == nil {
		t.Fatal("LoadCell on a dead shard should fail")
	}
	for _, sentinel := range []error{ErrShardUnavailable, ErrReplicaExhausted, injected} {
		if !errors.Is(err, sentinel) {
			t.Errorf("errors.Is(%v, %v) = false", err, sentinel)
		}
	}
	if want := fmt.Sprintf("shard %d", 0); !contains(err.Error(), want) {
		t.Errorf("error %q does not name the shard", err)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestHedgeDisabledNeverFansOut: without a hedge delay a healthy (if slow)
// primary is the only replica contacted.
func TestHedgeDisabledNeverFansOut(t *testing.T) {
	slow := newStubBackend()
	slow.delay = 10 * time.Millisecond
	spare := newStubBackend()
	other := newStubBackend()
	c := stubCoordinator(t, [][]Backend{{slow, spare}, {other}}, CoordinatorOptions{})
	if _, err := c.ScoreAll(context.Background(), nil, stubUnc(c)); err != nil {
		t.Fatal(err)
	}
	if n := spare.calls.Load(); n != 0 {
		t.Errorf("spare replica called %d times with hedging disabled", n)
	}
}

// TestHedgedCallWinsAndCancelsLoser: a hedged request fires the second
// replica after the delay, takes the first answer, and cancels the losing
// attempt's context instead of leaking its goroutine.
func TestHedgedCallWinsAndCancelsLoser(t *testing.T) {
	slow := newStubBackend()
	slow.block = true // never answers; only cancellation releases it
	fast := newStubBackend()
	other := newStubBackend()
	c := stubCoordinator(t, [][]Backend{{slow, fast}, {other}},
		CoordinatorOptions{HedgeDelay: 2 * time.Millisecond})
	unc := stubUnc(c)
	start := time.Now()
	degraded, err := c.ScoreAll(context.Background(), nil, unc)
	if err != nil {
		t.Fatal(err)
	}
	if len(degraded) != 0 {
		t.Fatalf("degraded = %v; the hedge should have masked the slow replica", degraded)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("hedged call took %v; should not wait for the blocked primary", elapsed)
	}
	if fast.calls.Load() != 1 || slow.calls.Load() != 1 {
		t.Errorf("calls: slow %d, fast %d; want both attempted", slow.calls.Load(), fast.calls.Load())
	}
	for i, cell := range c.ownedCells[0] {
		if unc[cell] != fast.scores[i] {
			t.Fatalf("unc[%d] = %v, want the winner's score %v", cell, unc[cell], fast.scores[i])
		}
	}
	select {
	case <-slow.cancelled:
	case <-time.After(5 * time.Second):
		t.Fatal("losing replica's context was never cancelled")
	}
}

// TestHedgingLeaksNoGoroutines drives many hedged calls whose losers block
// until cancellation and checks the goroutine count returns to baseline.
func TestHedgingLeaksNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		slow := newStubBackend()
		slow.block = true
		fast := newStubBackend()
		other := newStubBackend()
		c := stubCoordinator(t, [][]Backend{{slow, fast}, {other}},
			CoordinatorOptions{HedgeDelay: time.Millisecond})
		if _, err := c.ScoreAll(context.Background(), nil, stubUnc(c)); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
}
