package shard

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/uei-db/uei/internal/chunkstore"
	"github.com/uei-db/uei/internal/grid"
	"github.com/uei-db/uei/internal/obs"
)

// stubBackend is a scripted in-memory Backend for failure tests: it answers
// at once, fails with fail, or blocks until its context is cancelled. A
// retrieval answers with parts.
type stubBackend struct {
	fail  error
	block bool
	parts []RetrievedPart
}

// answer returns what the stub's every operation returns.
func (s *stubBackend) answer(ctx context.Context) error {
	if s.block {
		<-ctx.Done()
		return ctx.Err()
	}
	return s.fail
}

func (s *stubBackend) LoadCell(ctx context.Context, _ grid.CellID) ([]uint32, [][]float64, int, error) {
	if err := s.answer(ctx); err != nil {
		return nil, nil, 0, err
	}
	return []uint32{0}, [][]float64{{0.5, 0.5}}, 1, nil
}

func (s *stubBackend) FetchRows(ctx context.Context, _ []uint32) ([]chunkstore.MergedRow, error) {
	return nil, s.answer(ctx)
}

func (s *stubBackend) Retrieve(ctx context.Context, _ [][]bool) ([]RetrievedPart, int, error) {
	if err := s.answer(ctx); err != nil {
		return nil, 0, err
	}
	return s.parts, len(s.parts), nil
}

func (s *stubBackend) Stats() BackendStats { return BackendStats{} }
func (s *stubBackend) ResetIOStats()       {}

// stubCoordinator builds a coordinator over a tiny two-shard store whose
// grid exists only in memory; the scripted backends answer for the
// (nonexistent) data.
func stubCoordinator(t *testing.T, backends ...Backend) *Coordinator {
	t.Helper()
	man := &Manifest{
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
	c, err := NewCoordinator(man, backends, CoordinatorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestDeadShardErrorChain: when a shard's one backend fails a load, the
// error is errors.Is-able for both ErrShardUnavailable and the injected
// cause and names the shard, and the load counts as one degradation of
// that shard.
func TestDeadShardErrorChain(t *testing.T) {
	injected := errors.New("injected")
	c := stubCoordinator(t, &stubBackend{fail: injected}, &stubBackend{})
	reg := obs.NewRegistry()
	c.Instrument(reg)

	_, _, _, err := c.LoadCell(context.Background(), cellOwnedBy(t, c, 0))
	if err == nil {
		t.Fatal("LoadCell on a dead shard should fail")
	}
	for _, sentinel := range []error{ErrShardUnavailable, injected} {
		if !errors.Is(err, sentinel) {
			t.Errorf("errors.Is(%v, %v) = false", err, sentinel)
		}
	}
	if !strings.Contains(err.Error(), "shard 0") {
		t.Errorf("error %q does not name the shard", err)
	}
	if got := reg.Counter("shard_degraded_total").Value(); got != 1 {
		t.Errorf("shard_degraded_total = %d, want 1", got)
	}
	if got := reg.Counter(`shard_skip_total{shard="0"}`).Value(); got != 1 {
		t.Errorf(`shard_skip_total{shard="0"} = %d, want 1`, got)
	}
}

// TestScatterGatherLeaksNoGoroutines: a fetch whose one shard fails while
// the other blocks until cancelled returns the failure, and the blocked
// leg's goroutine ends once the scatter cancels it.
func TestScatterGatherLeaksNoGoroutines(t *testing.T) {
	injected := errors.New("injected")
	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		c := stubCoordinator(t, &stubBackend{block: true}, &stubBackend{fail: injected})
		_, err := c.FetchRows(context.Background(), []uint32{0, 1})
		if !errors.Is(err, ErrShardUnavailable) || !errors.Is(err, injected) || !strings.Contains(err.Error(), "shard 1") {
			t.Fatalf("fetch err = %v, want shard 1's failure", err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
}
