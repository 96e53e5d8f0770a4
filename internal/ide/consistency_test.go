package ide

import (
	"context"
	"testing"

	"github.com/uei-db/uei/internal/al"
	"github.com/uei-db/uei/internal/learn"
	"github.com/uei-db/uei/internal/oracle"
)

// TestRetrievalConsistencyAcrossProviders is the cross-module invariant at
// the heart of the system: given the SAME trained model, exact UEI
// retrieval (cutoff 0, grid-merged from chunk files) and DBMS retrieval
// (full heap scan) must return exactly the same id set — two storage
// engines, one answer.
func TestRetrievalConsistencyAcrossProviders(t *testing.T) {
	f := newFixture(t, 3000, 0.01)
	uei := f.ueiProvider(t, 200)
	dbmsP := f.dbmsProvider(t, 8)
	uei.RetrievalCutoff = 0 // exact

	// Train a model via a short DBMS session.
	cfg := Config{
		MaxLabels:        40,
		EstimatorFactory: f.estimatorFactory(t),
		Strategy:         al.LeastConfidence{},
		Seed:             9,
		SeedWithPositive: true,
	}
	sess, err := NewSession(cfg, dbmsP, OracleLabeler{O: f.orc})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	model := res.Model

	fromDBMS, err := dbmsP.Retrieve(context.Background(), model)
	if err != nil {
		t.Fatal(err)
	}
	fromUEI, err := uei.Retrieve(context.Background(), model)
	if err != nil {
		t.Fatal(err)
	}
	if len(fromDBMS) == 0 {
		t.Fatal("model retrieves nothing; fixture broken")
	}
	if len(fromUEI) != len(fromDBMS) {
		t.Fatalf("UEI retrieved %d ids, DBMS %d", len(fromUEI), len(fromDBMS))
	}
	for i := range fromUEI {
		if fromUEI[i] != fromDBMS[i] {
			t.Fatalf("id %d differs: %d vs %d", i, fromUEI[i], fromDBMS[i])
		}
	}
}

// TestPrunedRetrievalIsSubset checks that grid pruning only removes ids,
// never invents them.
func TestPrunedRetrievalIsSubset(t *testing.T) {
	f := newFixture(t, 2000, 0.02)
	uei := f.ueiProvider(t, 150)

	cfg := Config{
		MaxLabels:        30,
		EstimatorFactory: f.estimatorFactory(t),
		Strategy:         al.LeastConfidence{},
		Seed:             10,
		SeedWithPositive: true,
	}
	sess, err := NewSession(cfg, uei, OracleLabeler{O: f.orc})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	uei.RetrievalCutoff = 0
	exact, err := uei.Retrieve(context.Background(), res.Model)
	if err != nil {
		t.Fatal(err)
	}
	exactSet := make(map[uint32]bool, len(exact))
	for _, id := range exact {
		exactSet[id] = true
	}
	uei.RetrievalCutoff = 0.1
	pruned, err := uei.Retrieve(context.Background(), res.Model)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range pruned {
		if !exactSet[id] {
			t.Fatalf("pruned retrieval invented id %d", id)
		}
	}
}

// TestOracleLabeler verifies the Labeler adapter contract.
func TestOracleLabeler(t *testing.T) {
	f := newFixture(t, 500, 0.05)
	l := OracleLabeler{O: f.orc}
	var seed uint32
	var row []float64
	var ok bool
	var err error
	if seed, row, ok, err = l.SeedPositive(); err != nil || !ok {
		t.Fatalf("no seed positive in a 5%% region (%v)", err)
	}
	if !l.IsRelevant(seed, row) {
		t.Error("seed positive not relevant")
	}
	if len(row) != f.ds.Dims() {
		t.Errorf("seed row has %d dims", len(row))
	}
	if got := l.Label(seed, row); got != oracle.Positive {
		t.Errorf("Label(seed) = %v", got)
	}
}

// TestSeedWithPositiveRequiresSeeder checks the interface guard.
func TestSeedWithPositiveRequiresSeeder(t *testing.T) {
	f := newFixture(t, 300, 0.05)
	p := f.dbmsProvider(t, 4)
	plain := plainLabeler{o: f.orc}
	cfg := Config{
		MaxLabels:        5,
		EstimatorFactory: f.estimatorFactory(t),
		Strategy:         al.LeastConfidence{},
		SeedWithPositive: true,
	}
	if _, err := NewSession(cfg, p, plain); err == nil {
		t.Error("SeedWithPositive with a non-seeding labeler should fail")
	}
	cfg.SeedWithPositive = false
	if _, err := NewSession(cfg, p, plain); err != nil {
		t.Errorf("plain labeler without seeding should work: %v", err)
	}
}

// plainLabeler implements Labeler but not PositiveSeeder.
type plainLabeler struct {
	o *oracle.Oracle
}

func (p plainLabeler) Label(id uint32, row []float64) oracle.Label {
	if p.o.Region().Contains(row) {
		return oracle.Positive
	}
	return oracle.Negative
}

var _ learn.Classifier = (*learn.DWKNN)(nil) // compile-time interface checks
var _ Labeler = OracleLabeler{}
var _ PositiveSeeder = OracleLabeler{}
