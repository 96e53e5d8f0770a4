package ide

import (
	"context"
	"errors"
	"math"
	"testing"

	"github.com/uei-db/uei/internal/al"
	"github.com/uei-db/uei/internal/learn"
	"github.com/uei-db/uei/internal/oracle"
)

// TestStepDrivenMatchesRun: driving the session step-wise with
// Propose/Resolve/Finish must reproduce Run exactly — same solicited
// tuples, same iteration count, same retrieved result set.
func TestStepDrivenMatchesRun(t *testing.T) {
	ctx := context.Background()
	f := newFixture(t, 2500, 0.02)

	cfg := Config{
		MaxLabels:        25,
		EstimatorFactory: f.estimatorFactory(t),
		Strategy:         al.LeastConfidence{},
		Seed:             11,
		SeedWithPositive: true,
	}

	// Run-driven session.
	var runSelections []uint32
	cfgA := cfg
	cfgA.OnIteration = func(it IterationInfo) { runSelections = append(runSelections, it.SelectedID) }
	sessA, err := NewSession(cfgA, f.ueiProvider(t, 400), OracleLabeler{O: mustOracle(t, f)})
	if err != nil {
		t.Fatal(err)
	}
	resA, err := sessA.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}

	// Step-driven session over an identically configured environment.
	var stepSelections []uint32
	sessB, err := NewSession(cfg, f.ueiProvider(t, 400), OracleLabeler{O: mustOracle(t, f)})
	if err != nil {
		t.Fatal(err)
	}
	for {
		p, err := sessB.Propose(ctx)
		if errors.Is(err, ErrExplorationDone) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		// Re-proposing without resolving must be idempotent.
		if p2, err := sessB.Propose(ctx); err != nil || p2.ID != p.ID {
			t.Fatalf("re-propose: got (%v, %v), want proposal %d again", p2, err, p.ID)
		}
		if !p.Bootstrap {
			stepSelections = append(stepSelections, p.ID)
		}
		if _, err := sessB.Resolve(ctx); err != nil {
			t.Fatal(err)
		}
	}
	resB, err := sessB.Finish(ctx)
	if err != nil {
		t.Fatal(err)
	}

	if len(runSelections) == 0 {
		t.Fatal("Run made no selections")
	}
	if len(runSelections) != len(stepSelections) {
		t.Fatalf("Run selected %d tuples, step-driven %d", len(runSelections), len(stepSelections))
	}
	for i := range runSelections {
		if runSelections[i] != stepSelections[i] {
			t.Fatalf("selection %d: Run chose %d, step-driven chose %d", i, runSelections[i], stepSelections[i])
		}
	}
	if resA.Iterations != resB.Iterations || resA.LabelsUsed != resB.LabelsUsed {
		t.Errorf("summaries disagree: Run %d iters/%d labels, step %d/%d",
			resA.Iterations, resA.LabelsUsed, resB.Iterations, resB.LabelsUsed)
	}
	if len(resA.Positive) != len(resB.Positive) {
		t.Fatalf("Run retrieved %d tuples, step-driven %d", len(resA.Positive), len(resB.Positive))
	}
	for i := range resA.Positive {
		if resA.Positive[i] != resB.Positive[i] {
			t.Fatalf("result %d: Run %d, step %d", i, resA.Positive[i], resB.Positive[i])
		}
	}
}

// TestFeedMatchesOracleLabeler: a session whose labels arrive externally
// through Feed (the serving path) must match one whose OracleLabeler
// answers inline, when the fed answers are the same ground truth.
func TestFeedMatchesOracleLabeler(t *testing.T) {
	ctx := context.Background()
	// A wide region so pure random acquisition (no positive seeding, which
	// an ExternalLabeler cannot provide) finds both classes quickly.
	f := newFixture(t, 1500, 0.25)
	orc := mustOracle(t, f)

	cfg := Config{
		MaxLabels:        15,
		EstimatorFactory: f.estimatorFactory(t),
		Strategy:         al.LeastConfidence{},
		Seed:             7,
	}

	var inlineSelections []uint32
	cfgA := cfg
	cfgA.OnIteration = func(it IterationInfo) { inlineSelections = append(inlineSelections, it.SelectedID) }
	sessA, err := NewSession(cfgA, f.ueiProvider(t, 300), OracleLabeler{O: mustOracle(t, f)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sessA.Run(ctx); err != nil {
		t.Fatal(err)
	}

	var fedSelections []uint32
	sessB, err := NewSession(cfg, f.ueiProvider(t, 300), &ExternalLabeler{})
	if err != nil {
		t.Fatal(err)
	}
	for {
		p, err := sessB.Propose(ctx)
		if errors.Is(err, ErrExplorationDone) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if !p.Bootstrap {
			fedSelections = append(fedSelections, p.ID)
		}
		// The "remote user" answers from the same ground truth.
		if _, err := sessB.Feed(ctx, orc.LabelPoint(p.Row)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sessB.Finish(ctx); err != nil {
		t.Fatal(err)
	}

	if len(inlineSelections) == 0 || len(inlineSelections) != len(fedSelections) {
		t.Fatalf("inline selected %d tuples, fed %d", len(inlineSelections), len(fedSelections))
	}
	for i := range inlineSelections {
		if inlineSelections[i] != fedSelections[i] {
			t.Fatalf("selection %d: inline %d, fed %d", i, inlineSelections[i], fedSelections[i])
		}
	}
}

// TestStepMisuse: resolving without a proposal, feeding a non-external
// labeler, and finishing with an outstanding proposal all fail loudly.
func TestStepMisuse(t *testing.T) {
	ctx := context.Background()
	f := newFixture(t, 800, 0.2)
	sess, err := NewSession(Config{
		MaxLabels:        5,
		EstimatorFactory: f.estimatorFactory(t),
		Strategy:         al.LeastConfidence{},
		Seed:             3,
	}, f.ueiProvider(t, 200), OracleLabeler{O: mustOracle(t, f)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Resolve(ctx); err == nil {
		t.Error("Resolve without a proposal should fail")
	}
	if _, err := sess.Finish(ctx); err == nil {
		t.Error("Finish before the first fit should fail")
	}
	if _, err := sess.Propose(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Feed(ctx, oracle.Positive); err == nil {
		t.Error("Feed with an OracleLabeler should fail")
	}
	if _, err := sess.Finish(ctx); err == nil {
		t.Error("Finish with an outstanding proposal should fail")
	}
}

// coarseConfidence is least confidence rounded down to a tenth. It is not
// al.LeastConfidence, so a session selects with it by the streaming route
// even over a resident pool, and its scores tie constantly.
type coarseConfidence struct{}

func (coarseConfidence) Name() string { return "coarse-confidence" }

func (coarseConfidence) Score(m learn.Classifier, x []float64) (float64, error) {
	u, err := learn.Uncertainty(m, x)
	return math.Floor(u*10) / 10, err
}

// TestStreamingRouteIsArgmax holds the selection loop's streaming route —
// one Strategy.Score call per candidate, what every session without a DWKNN
// neighbour table runs — to Eq. 2: each proposal is the first-seen argmax
// of the strategy score over the provider's candidates, id and score bits.
// coarseConfidence's tenths tie constantly, so a last-seen tie break does
// not pass.
func TestStreamingRouteIsArgmax(t *testing.T) {
	ctx := context.Background()
	f := newFixture(t, 2000, 0.02)
	cases := []struct {
		name      string
		provider  func() Provider
		estimator func() learn.Classifier
		strategy  al.Scorer
	}{
		{"uei/dwknn/coarse-confidence", func() Provider { return f.ueiProvider(t, 200) },
			f.estimatorFactory(t), coarseConfidence{}},
		{"dbms/dwknn/least-confidence", func() Provider { return f.dbmsProvider(t, 4) },
			f.estimatorFactory(t), al.LeastConfidence{}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			provider := tc.provider()
			sess, err := NewSession(Config{
				MaxLabels:        12,
				EstimatorFactory: tc.estimator,
				Strategy:         tc.strategy,
				Seed:             11,
				SeedWithPositive: true,
			}, provider, OracleLabeler{O: mustOracle(t, f)})
			if err != nil {
				t.Fatal(err)
			}
			selections := 0
			for {
				p, err := sess.Propose(ctx)
				if errors.Is(err, ErrExplorationDone) {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				if !p.Bootstrap {
					selections++
					var bestID uint32
					bestScore := math.Inf(-1)
					pool := 0
					if err := provider.Candidates(ctx, func(id uint32, row []float64) bool {
						v, err := tc.strategy.Score(sess.Model(), row)
						if err != nil {
							t.Fatal(err)
						}
						pool++
						if v > bestScore {
							bestID, bestScore = id, v
						}
						return true
					}); err != nil {
						t.Fatal(err)
					}
					if p.ID != bestID || math.Float64bits(p.Score) != math.Float64bits(bestScore) || p.Pool != pool {
						t.Fatalf("selection %d proposed #%d (score %v) over %d candidates; the argmax is #%d (score %v) over %d",
							selections, p.ID, p.Score, p.Pool, bestID, bestScore, pool)
					}
				}
				if _, err := sess.Resolve(ctx); err != nil {
					t.Fatal(err)
				}
			}
			if selections < 8 {
				t.Fatalf("only %d selections were checked", selections)
			}
		})
	}
}

// mustOracle builds a fresh oracle over the fixture's region (fresh so the
// per-oracle label counter starts at zero for each session).
func mustOracle(t *testing.T, f *fixture) *oracle.Oracle {
	t.Helper()
	orc, err := oracle.New(f.ds, f.region)
	if err != nil {
		t.Fatal(err)
	}
	return orc
}
