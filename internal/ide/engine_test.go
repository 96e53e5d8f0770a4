package ide

import (
	"context"
	"slices"
	"testing"
	"time"

	"github.com/uei-db/uei/internal/al"
	"github.com/uei-db/uei/internal/core"
	"github.com/uei-db/uei/internal/dataset"
	"github.com/uei-db/uei/internal/dbms"
	"github.com/uei-db/uei/internal/learn"
	"github.com/uei-db/uei/internal/metrics"
	"github.com/uei-db/uei/internal/oracle"
)

// fixture bundles a small exploration environment.
type fixture struct {
	ds     *dataset.Dataset
	region oracle.Region
	orc    *oracle.Oracle
}

func newFixture(t *testing.T, n int, fraction float64) *fixture {
	t.Helper()
	ds, err := dataset.GenerateSky(dataset.SkyConfig{N: n, Seed: 61})
	if err != nil {
		t.Fatal(err)
	}
	region, err := oracle.FindRegion(ds, fraction, 0.5, 5, 10)
	if err != nil {
		t.Fatal(err)
	}
	orc, err := oracle.New(ds, region)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{ds: ds, region: region, orc: orc}
}

func (f *fixture) estimatorFactory(t *testing.T) func() learn.Classifier {
	t.Helper()
	bounds, err := f.ds.Bounds()
	if err != nil {
		t.Fatal(err)
	}
	widths := bounds.Widths()
	return func() learn.Classifier { return learn.NewDWKNN(5, widths) }
}

func (f *fixture) ueiProvider(t *testing.T, sample int) *UEIProvider {
	t.Helper()
	dir := t.TempDir()
	if err := core.Build(dir, f.ds, core.BuildOptions{TargetChunkBytes: 2048}); err != nil {
		t.Fatal(err)
	}
	idx, err := core.Open(context.Background(), dir, core.Options{MemoryBudgetBytes: 1 << 20, SampleSize: sample, Seed: 3})
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

func (f *fixture) dbmsProvider(t *testing.T, frames int) *DBMSProvider {
	t.Helper()
	tb, err := dbms.CreateTable(t.TempDir(), f.ds, frames, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tb.Close() })
	p, err := NewDBMSProvider(tb)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// evalF1 measures the model's F-measure against the oracle on every tuple.
func evalF1(t *testing.T, f *fixture, model learn.Classifier) float64 {
	t.Helper()
	var conf metrics.Confusion
	var evalErr error
	f.ds.Scan(func(id dataset.RowID, row []float64) bool {
		cls, err := learn.Predict(model, row)
		if err != nil {
			evalErr = err
			return false
		}
		conf.Observe(cls == learn.ClassPositive, f.orc.Relevant(id))
		return true
	})
	if evalErr != nil {
		t.Fatal(evalErr)
	}
	return conf.F1()
}

func TestNewSessionValidation(t *testing.T) {
	f := newFixture(t, 300, 0.02)
	p := f.dbmsProvider(t, 4)
	factory := f.estimatorFactory(t)
	good := Config{MaxLabels: 5, EstimatorFactory: factory, Strategy: al.LeastConfidence{}}
	if _, err := NewSession(good, nil, OracleLabeler{O: f.orc}); err == nil {
		t.Error("nil provider should fail")
	}
	if _, err := NewSession(good, p, nil); err == nil {
		t.Error("nil oracle should fail")
	}
	for _, bad := range []Config{
		{MaxLabels: 0, EstimatorFactory: factory, Strategy: al.LeastConfidence{}},
		{MaxLabels: 5, Strategy: al.LeastConfidence{}},
		{MaxLabels: 5, EstimatorFactory: factory},
		{MaxLabels: 5, EstimatorFactory: factory, Strategy: al.LeastConfidence{}, BatchSize: -1},
	} {
		if _, err := NewSession(bad, p, OracleLabeler{O: f.orc}); err == nil {
			t.Errorf("config %+v should fail", bad)
		}
	}
}

func TestDBMSSessionConverges(t *testing.T) {
	f := newFixture(t, 4000, 0.01)
	p := f.dbmsProvider(t, 8)
	var iterations []IterationInfo
	cfg := Config{
		MaxLabels:        60,
		BatchSize:        1,
		EstimatorFactory: f.estimatorFactory(t),
		Strategy:         al.LeastConfidence{},
		Seed:             1,
		SeedWithPositive: true,
		OnIteration:      func(it IterationInfo) { iterations = append(iterations, it) },
	}
	sess, err := NewSession(cfg, p, OracleLabeler{O: f.orc})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.LabelsUsed != 60 {
		t.Errorf("LabelsUsed = %d", res.LabelsUsed)
	}
	if len(iterations) == 0 {
		t.Fatal("no iterations observed")
	}
	// Pool shrinks as labels accumulate.
	first, last := iterations[0], iterations[len(iterations)-1]
	if last.PoolSize >= first.PoolSize {
		t.Errorf("pool did not shrink: %d -> %d", first.PoolSize, last.PoolSize)
	}
	f1 := evalF1(t, f, res.Model)
	if f1 < 0.5 {
		t.Errorf("final F1 = %.3f; uncertainty sampling should reach 0.5 with 60 labels", f1)
	}
	// Retrieval must agree with the final model's own predictions.
	if len(res.Positive) == 0 {
		t.Error("empty retrieval")
	}
}

func TestUEISessionConverges(t *testing.T) {
	f := newFixture(t, 4000, 0.01)
	p := f.ueiProvider(t, 400)
	cfg := Config{
		MaxLabels:        60,
		BatchSize:        1,
		EstimatorFactory: f.estimatorFactory(t),
		Strategy:         al.LeastConfidence{},
		Seed:             2,
		SeedWithPositive: true,
	}
	sess, err := NewSession(cfg, p, OracleLabeler{O: f.orc})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	f1 := evalF1(t, f, res.Model)
	if f1 < 0.4 {
		t.Errorf("final F1 = %.3f; UEI session should reach 0.4 with 60 labels", f1)
	}
	st := p.Index().Stats()
	if st.RegionSwaps == 0 {
		t.Error("UEI session never loaded a region")
	}
}

func TestSessionDeterminism(t *testing.T) {
	run := func() []uint32 {
		f := newFixture(t, 1500, 0.02)
		p := f.dbmsProvider(t, 8)
		var picks []uint32
		cfg := Config{
			MaxLabels:        20,
			EstimatorFactory: f.estimatorFactory(t),
			Strategy:         al.LeastConfidence{},
			Seed:             7,
			SeedWithPositive: true,
			OnIteration:      func(it IterationInfo) { picks = append(picks, it.SelectedID) },
		}
		sess, err := NewSession(cfg, p, OracleLabeler{O: f.orc})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		return picks
	}
	a, b := run(), run()
	if len(a) != len(b) || len(a) == 0 {
		t.Fatalf("runs differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("pick %d differs: %d vs %d", i, a[i], b[i])
		}
	}
}

// TestSharedOracleLabelsSessionsInTurn: one oracle labels two sessions in
// turn. Each session counts its own labels, so the second starts with its
// whole budget, finishes, and picks what the first picked.
func TestSharedOracleLabelsSessionsInTurn(t *testing.T) {
	f := newFixture(t, 1500, 0.02)
	user := OracleLabeler{O: f.orc}
	const budget = 20
	var runs [2][]uint32
	for i := range runs {
		cfg := Config{
			MaxLabels:        budget,
			EstimatorFactory: f.estimatorFactory(t),
			Strategy:         al.LeastConfidence{},
			Seed:             7,
			SeedWithPositive: true,
			OnIteration:      func(it IterationInfo) { runs[i] = append(runs[i], it.SelectedID) },
		}
		sess, err := NewSession(cfg, f.dbmsProvider(t, 8), user)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sess.Run(context.Background())
		if err != nil {
			t.Fatalf("session %d over the shared oracle: %v", i, err)
		}
		if res.LabelsUsed != budget {
			t.Fatalf("session %d used %d labels, want its own %d", i, res.LabelsUsed, budget)
		}
	}
	if len(runs[0]) == 0 || !slices.Equal(runs[0], runs[1]) {
		t.Fatalf("the sessions picked %v and %v, want the same non-empty sequence", runs[0], runs[1])
	}
}

func TestSessionWithoutSeedPositive(t *testing.T) {
	// A generous region (20%) makes random acquisition find a positive
	// quickly; the session must work with no oracle bootstrap.
	f := newFixture(t, 1000, 0.2)
	p := f.dbmsProvider(t, 8)
	cfg := Config{
		MaxLabels:        40,
		EstimatorFactory: f.estimatorFactory(t),
		Strategy:         al.LeastConfidence{},
		Seed:             3,
		SeedWithPositive: false,
	}
	sess, err := NewSession(cfg, p, OracleLabeler{O: f.orc})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.LabelsUsed == 0 || res.Model == nil {
		t.Error("session did not run")
	}
}

func TestSessionBatchRetraining(t *testing.T) {
	f := newFixture(t, 1500, 0.02)
	p := f.dbmsProvider(t, 8)
	retrains := 0
	iters := 0
	cfg := Config{
		MaxLabels:        22,
		BatchSize:        5,
		EstimatorFactory: f.estimatorFactory(t),
		Strategy:         al.LeastConfidence{},
		Seed:             4,
		SeedWithPositive: true,
		OnIteration: func(it IterationInfo) {
			iters++
			if it.Retrained {
				retrains++
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
	if retrains == 0 {
		t.Fatal("model never retrained")
	}
	// With B=5, roughly one retrain per 5 iterations.
	if retrains > iters/4 {
		t.Errorf("retrained %d times in %d iterations with B=5", retrains, iters)
	}
}

func TestSessionPoolExhaustion(t *testing.T) {
	// More label budget than tuples: the loop must stop when the pool
	// drains rather than spin.
	f := newFixture(t, 60, 0.2)
	p := f.dbmsProvider(t, 4)
	cfg := Config{
		MaxLabels:        500,
		EstimatorFactory: f.estimatorFactory(t),
		Strategy:         al.LeastConfidence{},
		Seed:             5,
		SeedWithPositive: true,
	}
	sess, err := NewSession(cfg, p, OracleLabeler{O: f.orc})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.LabelsUsed > 60 {
		t.Errorf("labeled %d tuples out of 60", res.LabelsUsed)
	}
}

func TestUEIResponseTimeBeatsFullScanPool(t *testing.T) {
	// Not a wall-clock benchmark — just the structural claim: the UEI
	// candidate pool per iteration is far smaller than the DBMS pool.
	f := newFixture(t, 5000, 0.01)
	uei := f.ueiProvider(t, 200)
	dbmsP := f.dbmsProvider(t, 8)
	var ueiPool, dbmsPool int
	for name, p := range map[string]Provider{"uei": uei, "dbms": dbmsP} {
		pool := 0
		cfg := Config{
			MaxLabels:        10,
			EstimatorFactory: f.estimatorFactory(t),
			Strategy:         al.LeastConfidence{},
			Seed:             6,
			SeedWithPositive: true,
			OnIteration:      func(it IterationInfo) { pool = it.PoolSize },
		}
		orc2, err := oracle.New(f.ds, f.region)
		if err != nil {
			t.Fatal(err)
		}
		sess, err := NewSession(cfg, p, OracleLabeler{O: orc2})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Run(context.Background()); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if name == "uei" {
			ueiPool = pool
		} else {
			dbmsPool = pool
		}
	}
	if ueiPool == 0 || dbmsPool == 0 {
		t.Fatal("pools not observed")
	}
	if ueiPool*4 > dbmsPool {
		t.Errorf("UEI pool %d not substantially smaller than DBMS pool %d", ueiPool, dbmsPool)
	}
}

func TestIterationResponseTimeRecorded(t *testing.T) {
	f := newFixture(t, 800, 0.02)
	p := f.dbmsProvider(t, 4)
	var times []time.Duration
	cfg := Config{
		MaxLabels:        8,
		EstimatorFactory: f.estimatorFactory(t),
		Strategy:         al.LeastConfidence{},
		Seed:             8,
		SeedWithPositive: true,
		OnIteration:      func(it IterationInfo) { times = append(times, it.ResponseTime) },
	}
	sess, err := NewSession(cfg, p, OracleLabeler{O: f.orc})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(times) == 0 {
		t.Fatal("no response times recorded")
	}
	for i, d := range times {
		if d <= 0 {
			t.Errorf("iteration %d response time %v", i, d)
		}
	}
}
