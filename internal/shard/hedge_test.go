package shard

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/uei-db/uei/internal/chunkstore"
	"github.com/uei-db/uei/internal/grid"
	"github.com/uei-db/uei/internal/obs"
)

// stubBackend is a scripted in-memory Backend for replication tests: it
// can answer instantly, fail, or block until its context is cancelled.
type stubBackend struct {
	// row is the one row id LoadCell answers with, so a test can tell
	// which replica's reply reached the caller.
	row  uint32
	fail error
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

func (s *stubBackend) LoadCell(ctx context.Context, _ grid.CellID) ([]uint32, [][]float64, int, error) {
	s.calls.Add(1)
	if err := s.wait(ctx); err != nil {
		return nil, nil, 0, err
	}
	if s.fail != nil {
		return nil, nil, 0, s.fail
	}
	return []uint32{s.row}, [][]float64{{0.5, 0.5}}, 1, nil
}

func (s *stubBackend) FetchRows(context.Context, []uint32) ([]chunkstore.MergedRow, error) {
	return nil, nil
}

func (s *stubBackend) Retrieve(context.Context, [][]bool) ([]RetrievedPart, int, error) {
	return nil, 0, nil
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

// stubCoordinator builds a coordinator over scripted backends and returns
// it with a cell shard 0 owns — the shard every test replicates.
func stubCoordinator(t *testing.T, replicas [][]Backend, opts CoordinatorOptions) (*Coordinator, grid.CellID) {
	t.Helper()
	c, err := NewCoordinator(stubManifest(), replicas, opts)
	if err != nil {
		t.Fatal(err)
	}
	return c, cellOwnedBy(t, c, 0)
}

// TestFailoverOnReplicaError: a failing primary falls over to the healthy
// replica with no degradation recorded.
func TestFailoverOnReplicaError(t *testing.T) {
	bad := newStubBackend()
	bad.fail = errors.New("injected")
	good := newStubBackend()
	good.row = 7
	c, cell := stubCoordinator(t, [][]Backend{{bad, good}, {newStubBackend()}}, CoordinatorOptions{})
	reg := obs.NewRegistry()
	c.Instrument(reg)
	ids, _, _, err := c.LoadCell(context.Background(), cell)
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("shard_degraded_total").Value(); got != 0 {
		t.Fatalf("shard_degraded_total = %d; failover should mask a single-replica failure", got)
	}
	if got := reg.Counter("shard_failover_total").Value(); got != 1 {
		t.Errorf("shard_failover_total = %d, want 1", got)
	}
	if bad.calls.Load() != 1 || good.calls.Load() != 1 {
		t.Errorf("calls: bad %d, good %d; want 1 and 1", bad.calls.Load(), good.calls.Load())
	}
	if len(ids) != 1 || ids[0] != good.row {
		t.Fatalf("ids = %v, want the surviving replica's row %d", ids, good.row)
	}
}

// TestReplicaExhaustedErrorChain: when every replica fails, the error is
// errors.Is-able for both ErrShardUnavailable and ErrReplicaExhausted and
// names the shard, and the load counts as one degradation.
func TestReplicaExhaustedErrorChain(t *testing.T) {
	injected := errors.New("injected")
	bad1, bad2 := newStubBackend(), newStubBackend()
	bad1.fail, bad2.fail = injected, injected
	c, cell := stubCoordinator(t, [][]Backend{{bad1, bad2}, {newStubBackend()}}, CoordinatorOptions{})
	reg := obs.NewRegistry()
	c.Instrument(reg)

	_, _, _, err := c.LoadCell(context.Background(), cell)
	if err == nil {
		t.Fatal("LoadCell on a dead shard should fail")
	}
	for _, sentinel := range []error{ErrShardUnavailable, ErrReplicaExhausted, injected} {
		if !errors.Is(err, sentinel) {
			t.Errorf("errors.Is(%v, %v) = false", err, sentinel)
		}
	}
	if want := fmt.Sprintf("shard %d", 0); !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not name the shard", err)
	}
	if got := reg.Counter("shard_degraded_total").Value(); got != 1 {
		t.Errorf("shard_degraded_total = %d, want 1", got)
	}
	if got := reg.Counter(`shard_skip_total{shard="0"}`).Value(); got != 1 {
		t.Errorf(`shard_skip_total{shard="0"} = %d, want 1`, got)
	}
}

// TestHedgeDisabledNeverFansOut: without a hedge delay a healthy (if slow)
// primary is the only replica contacted.
func TestHedgeDisabledNeverFansOut(t *testing.T) {
	slow := newStubBackend()
	slow.delay = 10 * time.Millisecond
	spare := newStubBackend()
	c, cell := stubCoordinator(t, [][]Backend{{slow, spare}, {newStubBackend()}}, CoordinatorOptions{})
	if _, _, _, err := c.LoadCell(context.Background(), cell); err != nil {
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
	fast.row = 7
	c, cell := stubCoordinator(t, [][]Backend{{slow, fast}, {newStubBackend()}},
		CoordinatorOptions{HedgeDelay: 2 * time.Millisecond})
	reg := obs.NewRegistry()
	c.Instrument(reg)
	start := time.Now()
	ids, _, _, err := c.LoadCell(context.Background(), cell)
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("shard_degraded_total").Value(); got != 0 {
		t.Fatalf("shard_degraded_total = %d; the hedge should have masked the slow replica", got)
	}
	if got := reg.Counter("shard_hedged_total").Value(); got != 1 {
		t.Errorf("shard_hedged_total = %d, want 1", got)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("hedged call took %v; should not wait for the blocked primary", elapsed)
	}
	if fast.calls.Load() != 1 || slow.calls.Load() != 1 {
		t.Errorf("calls: slow %d, fast %d; want both attempted", slow.calls.Load(), fast.calls.Load())
	}
	if len(ids) != 1 || ids[0] != fast.row {
		t.Fatalf("ids = %v, want the winner's row %d", ids, fast.row)
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
		c, cell := stubCoordinator(t, [][]Backend{{slow, newStubBackend()}, {newStubBackend()}},
			CoordinatorOptions{HedgeDelay: time.Millisecond})
		if _, _, _, err := c.LoadCell(context.Background(), cell); err != nil {
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
