package ide

import (
	"context"
	"errors"
	"testing"
	"time"

	"github.com/uei-db/uei/internal/al"
)

// TestSessionRunCanceled cancels the context from inside the iteration hook;
// Run must return context.Canceled after at most one more iteration instead
// of spending the remaining label budget.
func TestSessionRunCanceled(t *testing.T) {
	f := newFixture(t, 2000, 0.02)
	p := f.ueiProvider(t, 200)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const cancelAfter = 3
	iterations := 0
	cfg := Config{
		MaxLabels:        200,
		EstimatorFactory: f.estimatorFactory(t),
		Strategy:         al.LeastConfidence{},
		Seed:             7,
		SeedWithPositive: true,
		OnIteration: func(it IterationInfo) {
			iterations++
			if iterations == cancelAfter {
				cancel()
			}
		},
	}
	sess, err := NewSession(cfg, p, OracleLabeler{O: f.orc})
	if err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	_, err = sess.Run(ctx)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	// The cancellation is observed at the top of the next iteration: the
	// hook that cancels fires after iteration 3 completes, so at most one
	// further iteration may slip through.
	if iterations > cancelAfter+1 {
		t.Errorf("ran %d iterations after cancel at %d", iterations, cancelAfter)
	}
	if elapsed > 5*time.Second {
		t.Errorf("cancellation took %v", elapsed)
	}
}

// TestSessionRunPreCanceled: a context canceled before Run starts must stop
// the session before it consumes any labels.
func TestSessionRunPreCanceled(t *testing.T) {
	f := newFixture(t, 500, 0.02)
	p := f.dbmsProvider(t, 4)
	cfg := Config{
		MaxLabels:        20,
		EstimatorFactory: f.estimatorFactory(t),
		Strategy:         al.LeastConfidence{},
		Seed:             7,
	}
	sess, err := NewSession(cfg, p, OracleLabeler{O: f.orc})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sess.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if n := sess.LabeledCount(); n != 0 {
		t.Errorf("pre-canceled run consumed %d labels", n)
	}
}
