package uei_test

import (
	"context"
	"testing"

	"github.com/uei-db/uei"
)

// TestFacadeEndToEnd exercises the whole public surface exactly as a
// downstream consumer would: generate data, build and open the index, run
// a simulated exploration, and check the retrieved set is sane.
func TestFacadeEndToEnd(t *testing.T) {
	ds, err := uei.GenerateSky(uei.SkyConfig{N: 6000, Seed: 101})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	ctx := context.Background()
	if err := uei.Build(ctx, dir, ds, uei.BuildOptions{TargetChunkBytes: 8 * 1024}); err != nil {
		t.Fatal(err)
	}
	idx, err := uei.Open(ctx, dir, uei.Options{
		MemoryBudgetBytes: ds.SizeBytes() / 20,
		EnablePrefetch:    false,
		Seed:              101,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()

	region, err := uei.FindRegion(ds, 0.01, 0.5, 3, 8)
	if err != nil {
		t.Fatal(err)
	}
	user, err := uei.NewOracle(ds, region)
	if err != nil {
		t.Fatal(err)
	}
	provider, err := uei.NewUEIProvider(idx)
	if err != nil {
		t.Fatal(err)
	}
	bounds, err := ds.Bounds()
	if err != nil {
		t.Fatal(err)
	}
	scales := bounds.Widths()
	sess, err := uei.NewSession(uei.SessionConfig{
		MaxLabels:        35,
		EstimatorFactory: func() uei.Classifier { return uei.NewDWKNN(7, scales) },
		Strategy:         uei.LeastConfidence{},
		Seed:             101,
		SeedWithPositive: true,
	}, provider, uei.OracleLabeler{O: user})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.LabelsUsed != 35 {
		t.Errorf("LabelsUsed = %d", res.LabelsUsed)
	}
	if res.Model == nil {
		t.Fatal("no model")
	}
	// The retrieved set should overlap the ground truth meaningfully.
	hits := 0
	for _, id := range res.Positive {
		if user.Relevant(uei.RowID(id)) {
			hits++
		}
	}
	if len(res.Positive) > 0 && hits == 0 {
		t.Error("retrieval has zero overlap with ground truth")
	}
	if st := idx.Stats(); st.RegionSwaps == 0 {
		t.Error("no region activity recorded")
	}
}

// TestFacadeBaselineEngine drives the DBMS surface through the facade.
func TestFacadeBaselineEngine(t *testing.T) {
	ds, err := uei.GenerateSky(uei.SkyConfig{N: 2000, Seed: 55})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	table, err := uei.CreateTable(context.Background(), dir, ds, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer table.Close()
	if table.RowCount() != 2000 {
		t.Errorf("RowCount = %d", table.RowCount())
	}
	if _, err := uei.NewDBMSProvider(table); err != nil {
		t.Fatal(err)
	}
}

// TestFacadeThrottle checks the bandwidth-model alias.
func TestFacadeThrottle(t *testing.T) {
	lim := uei.NewIOLimiter(1 << 20)
	lim.Acquire(1024)
	if b, _ := lim.Stats(); b != 1024 {
		t.Errorf("metered %d bytes", b)
	}
	var nilLim *uei.IOLimiter
	nilLim.Acquire(1 << 30) // nil limiter must be a no-op
}

// TestFacadeSchemaAndCSV exercises the dataset aliases.
func TestFacadeSchemaAndCSV(t *testing.T) {
	schema, err := uei.NewSchema("x", "y")
	if err != nil {
		t.Fatal(err)
	}
	if schema.Dims() != 2 {
		t.Errorf("Dims = %d", schema.Dims())
	}
	ds, _ := uei.GenerateSky(uei.SkyConfig{N: 20, Seed: 1})
	path := t.TempDir() + "/d.csv"
	if err := uei.WriteCSVFile(path, ds); err != nil {
		t.Fatal(err)
	}
	back, err := uei.ReadCSVFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 20 {
		t.Errorf("Len = %d", back.Len())
	}
}
