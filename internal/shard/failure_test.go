package shard

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/uei-db/uei/internal/leakcheck"
	"github.com/uei-db/uei/internal/obs"
)

// TestDeadShardErrorChain: when a shard fails a load, the error is
// errors.Is-able for both ErrShardUnavailable and the injected cause and
// names the shard, and the load counts as one degradation of that shard.
func TestDeadShardErrorChain(t *testing.T) {
	injected := errors.New("injected")
	c := openCoordinator(t, buildSharded(t, skyDataset(t, 200), 2), OpenOptions{})
	c.SetFaultHook(func(_ context.Context, s int, op string) error {
		if s == 0 && op == OpLoad {
			return injected
		}
		return nil
	})
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
	c := openCoordinator(t, buildSharded(t, skyDataset(t, 200), 2), OpenOptions{})
	c.SetFaultHook(func(ctx context.Context, s int, _ string) error {
		if s == 0 {
			<-ctx.Done()
			return ctx.Err()
		}
		return injected
	})
	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		_, err := c.FetchRows(context.Background(), []uint32{0, 1})
		if !errors.Is(err, ErrShardUnavailable) || !errors.Is(err, injected) || !strings.Contains(err.Error(), "shard 1") {
			t.Fatalf("fetch err = %v, want shard 1's failure", err)
		}
	}
	leakcheck.WaitGoroutines(t, before, 5*time.Second)
}
