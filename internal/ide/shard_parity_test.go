package ide

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"github.com/uei-db/uei/internal/al"
	"github.com/uei-db/uei/internal/core"
	"github.com/uei-db/uei/internal/shard"
)

// ueiShardedProvider mirrors ueiProvider over a sharded store.
func (f *fixture) ueiShardedProvider(t *testing.T, sample, shards int) *UEIProvider {
	t.Helper()
	dir := t.TempDir()
	if err := core.Build(dir, f.ds, core.BuildOptions{TargetChunkBytes: 2048, Shards: shards}); err != nil {
		t.Fatal(err)
	}
	idx, err := core.Open(context.Background(), dir, core.Options{
		MemoryBudgetBytes: 1 << 20, SampleSize: sample, Seed: 3, Shards: shards, Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(idx.Close)
	p, err := NewUEIProvider(idx)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// sessionTrace captures everything a run decides: the labeled sequence,
// the degraded flags, and the final retrieved set.
type sessionTrace struct {
	picks    []uint32
	degraded []bool
	positive []uint32
	labels   int
}

// runTracedSession builds a fresh fixture per run — the oracle counts
// labels across its lifetime, so sessions must not share one. Like every
// layout's parity run it also runs under an obs trace (startTestTrace),
// which must come out as one well-formed span tree.
func runTracedSession(t *testing.T, shards int) sessionTrace {
	t.Helper()
	f := newFixture(t, 1500, 0.02)
	var p Provider
	if shards > 1 {
		p = f.ueiShardedProvider(t, 200, shards)
	} else {
		p = f.ueiProvider(t, 200)
	}
	var tr sessionTrace
	cfg := Config{
		MaxLabels:        25,
		EstimatorFactory: f.estimatorFactory(t),
		Strategy:         al.LeastConfidence{},
		Seed:             7,
		SeedWithPositive: true,
		OnIteration: func(it IterationInfo) {
			tr.picks = append(tr.picks, it.SelectedID)
			tr.degraded = append(tr.degraded, it.Degraded)
		},
	}
	sess, err := NewSession(cfg, p, OracleLabeler{O: f.orc})
	if err != nil {
		t.Fatal(err)
	}
	ctx, finish := startTestTrace(t)
	res, err := sess.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	finish(len(tr.picks))
	tr.positive = res.Positive
	tr.labels = res.LabelsUsed
	return tr
}

// TestShardedSessionParity runs complete exploration sessions — bootstrap,
// labeling loop, result retrieval — against a flat store and against
// sharded stores with S in {2, 4, 8}, all over the same dataset with the
// same seed. Every decision must be byte-identical: the sharded layout is
// a storage re-organization, not a semantic change.
func TestShardedSessionParity(t *testing.T) {
	want := runTracedSession(t, 1)
	if len(want.picks) == 0 || len(want.positive) == 0 {
		t.Fatalf("flat session degenerate: %d picks, %d positives", len(want.picks), len(want.positive))
	}
	for _, shards := range []int{2, 4, 8} {
		t.Run(fmt.Sprintf("S=%d", shards), func(t *testing.T) {
			got := runTracedSession(t, shards)
			if got.labels != want.labels {
				t.Errorf("labels used: %d, flat used %d", got.labels, want.labels)
			}
			if len(got.picks) != len(want.picks) {
				t.Fatalf("%d iterations, flat ran %d", len(got.picks), len(want.picks))
			}
			for i := range got.picks {
				if got.picks[i] != want.picks[i] {
					t.Fatalf("iteration %d labeled row %d, flat labeled %d", i, got.picks[i], want.picks[i])
				}
				if got.degraded[i] {
					t.Errorf("iteration %d flagged degraded on a healthy store", i)
				}
			}
			if len(got.positive) != len(want.positive) {
				t.Fatalf("retrieved %d rows, flat retrieved %d", len(got.positive), len(want.positive))
			}
			for i := range got.positive {
				if got.positive[i] != want.positive[i] {
					t.Fatalf("retrieved[%d] = %d, flat has %d", i, got.positive[i], want.positive[i])
				}
			}
		})
	}
}

// TestShardedSessionDegradedFlag drives a session over a sharded store
// with one shard failing its cell loads — the shard the session's first
// load goes to, so the first winner is refused — and checks the degradation
// flag reaches the IDE layer's per-iteration surface.
func TestShardedSessionDegradedFlag(t *testing.T) {
	f := newFixture(t, 1200, 0.05)
	p := f.ueiShardedProvider(t, 150, 4)
	var victim atomic.Int32
	victim.Store(-1)
	p.idx.ShardCoordinator().SetFaultHook(func(_ context.Context, s, _ int, op string) error {
		if op != shard.OpLoad {
			return nil
		}
		victim.CompareAndSwap(-1, int32(s))
		if int32(s) == victim.Load() {
			return errors.New("injected fault")
		}
		return nil
	})
	var sawDegraded bool
	cfg := Config{
		MaxLabels:        12,
		EstimatorFactory: f.estimatorFactory(t),
		Strategy:         al.LeastConfidence{},
		Seed:             7,
		SeedWithPositive: true,
		OnIteration: func(it IterationInfo) {
			if it.Degraded {
				sawDegraded = true
			}
		},
	}
	sess, err := NewSession(cfg, p, OracleLabeler{O: f.orc})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !sawDegraded {
		t.Error("no iteration reported Degraded despite a failing shard")
	}
}
