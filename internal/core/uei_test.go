package core

import (
	"context"
	"errors"
	"math"
	"sort"
	"testing"
	"time"

	"github.com/uei-db/uei/internal/dataset"
	"github.com/uei-db/uei/internal/iothrottle"
	"github.com/uei-db/uei/internal/kernel"
	"github.com/uei-db/uei/internal/learn"
	"github.com/uei-db/uei/internal/memcache"
	"github.com/uei-db/uei/internal/oracle"
	"github.com/uei-db/uei/internal/vec"
)

// openTestIndex builds and opens a small index over sky data.
func openTestIndex(t *testing.T, n int, opts Options) (*Index, *dataset.Dataset) {
	t.Helper()
	ds, err := dataset.GenerateSky(dataset.SkyConfig{N: n, Seed: 51})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := Build(dir, ds, BuildOptions{TargetChunkBytes: 2048}); err != nil {
		t.Fatal(err)
	}
	if opts.MemoryBudgetBytes == 0 {
		opts.MemoryBudgetBytes = 1 << 20
	}
	idx, err := Open(context.Background(), dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(idx.Close)
	return idx, ds
}

// boundaryModel trains a DWKNN whose decision boundary crosses the data:
// positives inside a target region, negatives outside.
func boundaryModel(t testing.TB, ds *dataset.Dataset, region oracle.Region, nLabels int) learn.Classifier {
	t.Helper()
	bounds, err := ds.Bounds()
	if err != nil {
		t.Fatal(err)
	}
	m := learn.NewDWKNN(0, bounds.Widths()) // the served K
	var X [][]float64
	var y []int
	step := ds.Len() / nLabels
	if step < 1 {
		step = 1
	}
	for i := 0; i < ds.Len() && len(X) < nLabels; i += step {
		row := ds.CopyRow(dataset.RowID(i))
		X = append(X, row)
		if region.Contains(row) {
			y = append(y, learn.ClassPositive)
		} else {
			y = append(y, learn.ClassNegative)
		}
	}
	// Guarantee at least one positive: label the region center's nearest
	// tuple positive if none found.
	hasPos := false
	for _, label := range y {
		if label == learn.ClassPositive {
			hasPos = true
			break
		}
	}
	if !hasPos {
		ids := ds.Select(region.Box())
		if len(ids) == 0 {
			t.Fatal("region contains no tuples")
		}
		X = append(X, ds.CopyRow(ids[0]))
		y = append(y, learn.ClassPositive)
	}
	if err := m.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	return m
}

func testRegion(t testing.TB, ds *dataset.Dataset) oracle.Region {
	t.Helper()
	r, err := oracle.FindRegion(ds, 0.02, 0.5, 3, 8)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestOptionsValidation(t *testing.T) {
	ds, _ := dataset.GenerateSky(dataset.SkyConfig{N: 100, Seed: 1})
	dir := t.TempDir()
	if err := Build(dir, ds, BuildOptions{TargetChunkBytes: 2048}); err != nil {
		t.Fatal(err)
	}
	bad := []Options{
		{MemoryBudgetBytes: 0},
		{MemoryBudgetBytes: -5},
		{MemoryBudgetBytes: 100, SegmentsPerDim: -1},
		{MemoryBudgetBytes: 100, SampleSize: -1},
		{MemoryBudgetBytes: 100, LatencyThreshold: -time.Second},
		// No limiter, no model of a load's time to derive θ from.
		{MemoryBudgetBytes: 100, EnablePrefetch: true},
	}
	for i, o := range bad {
		if _, err := Open(context.Background(), dir, o); err == nil {
			t.Errorf("case %d: expected error for %+v", i, o)
		}
	}
}

func TestOpenDefaults(t *testing.T) {
	idx, _ := openTestIndex(t, 400, Options{})
	// 5 dims x 5 segments: Table 1's 3125 symbolic index points.
	if idx.NumIndexPoints() != 3125 {
		t.Errorf("NumIndexPoints = %d, want 3125", idx.NumIndexPoints())
	}
	if idx.ResidentRegion() != memcache.NoRegion {
		t.Error("fresh index should have no resident region")
	}
	// The registry says which body the strip kernels run on this CPU.
	if got := idx.Registry().Gauge("uei_kernel_vector_width").Value(); got != float64(kernel.VectorWidth()) {
		t.Errorf("uei_kernel_vector_width = %v, kernel.VectorWidth() = %d", got, kernel.VectorWidth())
	}
}

func TestInitExplorationRespectsGamma(t *testing.T) {
	idx, _ := openTestIndex(t, 500, Options{SampleSize: 64, Seed: 5})
	if err := idx.InitExploration(context.Background()); err != nil {
		t.Fatal(err)
	}
	if idx.CandidateCount() != 64 {
		t.Errorf("cache holds %d tuples, want γ=64", idx.CandidateCount())
	}
	// Candidates stream sorted.
	var prev uint32
	first := true
	idx.Candidates(func(id uint32, row []float64) bool {
		if !first && id <= prev {
			t.Fatalf("candidates out of order: %d after %d", id, prev)
		}
		prev, first = id, false
		if len(row) != 5 {
			t.Fatalf("row has %d dims", len(row))
		}
		return true
	})
}

func TestInitExplorationDerivedGamma(t *testing.T) {
	budget := int64(200) * memcache.TupleBytes(5)
	idx, _ := openTestIndex(t, 5000, Options{MemoryBudgetBytes: budget, Seed: 2})
	if err := idx.InitExploration(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Derived γ is half the budget's tuple capacity.
	if got := idx.CandidateCount(); got != 100 {
		t.Errorf("derived γ cached %d tuples, want 100", got)
	}
}

func TestUpdateUncertaintyAndSelection(t *testing.T) {
	idx, ds := openTestIndex(t, 2000, Options{SampleSize: 100, Seed: 7})
	region := testRegion(t, ds)
	model := boundaryModel(t, ds, region, 200)
	if _, err := idx.MostUncertainCells(1); err == nil {
		t.Error("selection before UpdateUncertainty should fail")
	}
	if err := idx.UpdateUncertainty(context.Background(), model); err != nil {
		t.Fatal(err)
	}
	top, err := idx.MostUncertainCells(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 5 {
		t.Fatalf("top = %v", top)
	}
	// The top cell's uncertainty must be the global max.
	u0, err := idx.CellUncertainty(top[0])
	if err != nil {
		t.Fatal(err)
	}
	if u0 != idx.MaxUncertainty() {
		t.Errorf("top cell uncertainty %g, max %g", u0, idx.MaxUncertainty())
	}
	// Ordering is descending.
	for i := 1; i < len(top); i++ {
		ua, _ := idx.CellUncertainty(top[i-1])
		ub, _ := idx.CellUncertainty(top[i])
		if ua < ub {
			t.Errorf("top-k not descending at %d", i)
		}
	}
	// The most uncertain cell should lie near the decision boundary: its
	// center's distance to the region should be moderate, not extreme.
	center, err := idx.Grid().Center(top[0])
	if err != nil {
		t.Fatal(err)
	}
	if u0 > 0 {
		// With any informative model, a far-away random corner should be
		// less uncertain than the top cell.
		corner := vec.Clone(idx.Grid().Bounds().Min)
		uCorner, err := learn.Uncertainty(model, corner)
		if err != nil {
			t.Fatal(err)
		}
		if uCorner > u0 {
			t.Errorf("corner more uncertain (%g) than selected cell (%g) at %v", uCorner, u0, center)
		}
	}
	if _, err := idx.CellUncertainty(-1); err == nil {
		t.Error("bad cell id should fail")
	}
}

func TestEnsureRegionSyncSwap(t *testing.T) {
	idx, ds := openTestIndex(t, 2000, Options{SampleSize: 100, Seed: 9})
	if err := idx.InitExploration(context.Background()); err != nil {
		t.Fatal(err)
	}
	region := testRegion(t, ds)
	model := boundaryModel(t, ds, region, 150)
	cell, err := idx.EnsureRegion(context.Background(), model)
	if err != nil {
		t.Fatal(err)
	}
	if idx.ResidentRegion() != int(cell) {
		t.Errorf("resident %d, want %d", idx.ResidentRegion(), cell)
	}
	st := idx.Stats()
	if st.RegionSwaps != 1 {
		t.Errorf("RegionSwaps = %d", st.RegionSwaps)
	}
	if st.BytesRead == 0 {
		t.Error("no bytes read during region load")
	}
	// Loading the region added its tuples to the candidate pool; they must
	// actually lie in the cell's box.
	box, err := idx.Grid().CellBox(cell)
	if err != nil {
		t.Fatal(err)
	}
	regionRows := 0
	idx.Candidates(func(id uint32, row []float64) bool {
		if box.Contains(row) {
			regionRows++
		}
		return true
	})
	want := ds.CountIn(box)
	if regionRows < want/2 {
		t.Errorf("only %d candidates inside the loaded cell box; dataset has %d", regionRows, want)
	}
	// Same target again: no new swap.
	if _, err := idx.EnsureRegion(context.Background(), model); err != nil {
		t.Fatal(err)
	}
	if idx.Stats().RegionSwaps != 1 {
		t.Error("re-ensuring the same cell must not reload")
	}
}

// TestLimiterMetersCellLoad is the evidence for Options.Limiter: an index
// opened with a limiter bills a region load for exactly the chunk bytes
// IOStats reports (the bandwidth is high enough that nothing waits).
func TestLimiterMetersCellLoad(t *testing.T) {
	limiter := iothrottle.New(1 << 40)
	idx, ds := openTestIndex(t, 2000, Options{SampleSize: 100, Seed: 9, Limiter: limiter})
	ctx := context.Background()
	if err := idx.InitExploration(ctx); err != nil {
		t.Fatal(err)
	}
	limiter.Reset()
	idx.ResetIOStats()
	if _, err := idx.EnsureRegion(ctx, boundaryModel(t, ds, testRegion(t, ds), 150)); err != nil {
		t.Fatal(err)
	}
	read, chunks := idx.IOStats()
	metered, _ := limiter.Stats()
	if read == 0 || chunks == 0 {
		t.Fatal("the region load read no chunks")
	}
	if metered != read {
		t.Errorf("limiter metered %d bytes, IOStats reports %d over %d chunks", metered, read, chunks)
	}
}

func TestEnsureRegionSwapsWhenModelChanges(t *testing.T) {
	idx, ds := openTestIndex(t, 2000, Options{SampleSize: 50, Seed: 10})
	if err := idx.InitExploration(context.Background()); err != nil {
		t.Fatal(err)
	}
	region := testRegion(t, ds)
	m1 := boundaryModel(t, ds, region, 40)
	first, err := idx.EnsureRegion(context.Background(), m1)
	if err != nil {
		t.Fatal(err)
	}
	// A second, different model (trained on a different region) usually
	// shifts the most-uncertain cell; after InvalidateScores the index must
	// re-score and follow it.
	r2, err := oracle.FindRegion(ds, 0.05, 0.5, 99, 8)
	if err != nil {
		t.Fatal(err)
	}
	m2 := boundaryModel(t, ds, r2, 40)
	idx.InvalidateScores()
	second, err := idx.EnsureRegion(context.Background(), m2)
	if err != nil {
		t.Fatal(err)
	}
	if first != second && idx.Stats().RegionSwaps != 2 {
		t.Errorf("expected a second swap, stats = %+v", idx.Stats())
	}
	if idx.ResidentRegion() != int(second) {
		t.Error("resident region out of sync")
	}
}

func TestMarkLabeledEvicts(t *testing.T) {
	idx, _ := openTestIndex(t, 300, Options{SampleSize: 30, Seed: 11})
	if err := idx.InitExploration(context.Background()); err != nil {
		t.Fatal(err)
	}
	var victim uint32
	idx.Candidates(func(id uint32, row []float64) bool {
		victim = id
		return false
	})
	before := idx.CandidateCount()
	idx.MarkLabeled(victim)
	if idx.CandidateCount() != before-1 {
		t.Errorf("count %d, want %d", idx.CandidateCount(), before-1)
	}
	idx.Candidates(func(id uint32, row []float64) bool {
		if id == victim {
			t.Fatal("labeled tuple still among candidates")
		}
		return true
	})
}

// TestPrefetchPathEndToEnd: with a region resident, a new target's swap
// lands exactly θ iterations after its load starts — here θ = ⌈24 µs /
// 10 µs⌉ = 3 for 2000 rows at 1 GB/s — and never earlier or later.
func TestPrefetchPathEndToEnd(t *testing.T) {
	idx, ds := openTestIndex(t, 2000, Options{
		SampleSize:       80,
		Seed:             12,
		EnablePrefetch:   true,
		Limiter:          iothrottle.New(1_000_000_000),
		LatencyThreshold: 10 * time.Microsecond,
	})
	if idx.theta != 3 {
		t.Fatalf("θ = %d, want 3", idx.theta)
	}
	if err := idx.InitExploration(context.Background()); err != nil {
		t.Fatal(err)
	}
	region := testRegion(t, ds)
	model := boundaryModel(t, ds, region, 120)
	// First ensure: nothing resident, so it must block and install.
	cell, err := idx.EnsureRegion(context.Background(), model)
	if err != nil {
		t.Fatal(err)
	}
	if idx.ResidentRegion() != int(cell) {
		t.Fatal("first region not installed")
	}
	// Force a different target by retraining on another region; the swap
	// may defer for up to θ iterations but must eventually land.
	r2, err := oracle.FindRegion(ds, 0.05, 0.5, 77, 8)
	if err != nil {
		t.Fatal(err)
	}
	m2 := boundaryModel(t, ds, r2, 120)
	idx.InvalidateScores()
	if err := idx.UpdateUncertainty(context.Background(), m2); err != nil {
		t.Fatal(err)
	}
	top, _ := idx.MostUncertainCells(1)
	target := top[0]
	if int(target) == idx.ResidentRegion() {
		t.Skip("model change did not move the target cell")
	}
	for i := 0; i <= idx.theta; i++ {
		got, err := idx.EnsureRegion(context.Background(), m2)
		if err != nil {
			t.Fatal(err)
		}
		if i < idx.theta && got != cell {
			t.Fatalf("iteration %d of θ = %d swapped to %d early", i, idx.theta, got)
		}
		if i == idx.theta && (got != target || idx.ResidentRegion() != int(target)) {
			t.Fatalf("iteration %d: got %d, resident %d; want the swap to %d", i, got, idx.ResidentRegion(), target)
		}
	}
	if st := idx.Stats(); st.SwapsDeferred != idx.theta || st.RegionSwaps != 2 {
		t.Errorf("%d deferred, %d swaps; want %d and 2", st.SwapsDeferred, st.RegionSwaps, idx.theta)
	}
}

func TestResultRetrievalMatchesOracle(t *testing.T) {
	idx, ds := openTestIndex(t, 3000, Options{SampleSize: 100, Seed: 13})
	region := testRegion(t, ds)
	// A well-trained model should retrieve roughly the oracle set.
	model := boundaryModel(t, ds, region, 600)
	got, err := idx.ResultRetrieval(context.Background(), model, 0)
	if err != nil {
		t.Fatal(err)
	}
	// got must be sorted unique.
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Error("retrieval not sorted")
	}
	for i := 1; i < len(got); i++ {
		if got[i] == got[i-1] {
			t.Fatal("retrieval contains duplicates")
		}
	}
	want := ds.Select(region.Box())
	// Compare as sets; demand substantial overlap (the model is imperfect).
	wantSet := make(map[uint32]bool, len(want))
	for _, id := range want {
		wantSet[uint32(id)] = true
	}
	hit := 0
	for _, id := range got {
		if wantSet[id] {
			hit++
		}
	}
	if len(want) > 0 && float64(hit)/float64(len(want)) < 0.5 {
		t.Errorf("retrieval recall %.2f too low (%d/%d)", float64(hit)/float64(len(want)), hit, len(want))
	}
	// Pruned retrieval must be a subset of exact retrieval and much
	// cheaper (fewer cells loaded).
	idx.ResetIOStats()
	pruned, err := idx.ResultRetrieval(context.Background(), model, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	prunedSet := make(map[uint32]bool, len(pruned))
	for _, id := range pruned {
		prunedSet[id] = true
	}
	gotSet := make(map[uint32]bool, len(got))
	for _, id := range got {
		gotSet[id] = true
	}
	for id := range prunedSet {
		if !gotSet[id] {
			t.Fatalf("pruned retrieval produced id %d absent from exact retrieval", id)
		}
	}
	if _, err := idx.ResultRetrieval(context.Background(), model, 0.7); err == nil {
		t.Error("cutoff >= 0.5 should fail")
	}
}

// The pruning cutoff is a posterior below the decision threshold; NaN
// compares false with everything and must not slip through as "no pruning".
func TestResultRetrievalValidatesCutoff(t *testing.T) {
	idx, ds := openTestIndex(t, 1500, Options{SampleSize: 40, Seed: 13})
	model := boundaryModel(t, ds, testRegion(t, ds), 100)
	for _, tc := range []struct {
		cutoff float64
		ok     bool
	}{
		{0, true}, {0.49, true},
		{math.NaN(), false}, {-0.1, false}, {0.5, false}, {math.Inf(1), false},
	} {
		if _, err := idx.ResultRetrieval(context.Background(), model, tc.cutoff); (err == nil) != tc.ok {
			t.Errorf("cutoff %v: err = %v, want accepted = %v", tc.cutoff, err, tc.ok)
		}
	}
}

// cancelingModel cancels a context the first time it is asked for a
// posterior: classification is then under way and the scan is over.
type cancelingModel struct {
	learn.Classifier
	cancel context.CancelFunc
}

func (m cancelingModel) PosteriorPositive(x []float64) (float64, error) {
	m.cancel()
	return m.Classifier.PosteriorPositive(x)
}

// A context cancelled mid-classification fails the retrieval with the
// context's error and hands back no ids — not the rows decided so far.
func TestResultRetrievalCanceledMidClassification(t *testing.T) {
	idx, ds := openTestIndex(t, 3000, Options{SampleSize: 40, Seed: 13, Workers: 2})
	ctx, cancel := context.WithCancel(context.Background())
	model := cancelingModel{boundaryModel(t, ds, testRegion(t, ds), 100), cancel}
	ids, err := idx.ResultRetrieval(ctx, model, 0)
	if !errors.Is(err, context.Canceled) || ids != nil {
		t.Errorf("got %d ids, err %v; want none and context.Canceled", len(ids), err)
	}
}

func TestStatsEntriesVisited(t *testing.T) {
	idx, ds := openTestIndex(t, 1500, Options{SampleSize: 40, Seed: 14})
	if err := idx.InitExploration(context.Background()); err != nil {
		t.Fatal(err)
	}
	region := testRegion(t, ds)
	model := boundaryModel(t, ds, region, 100)
	if _, err := idx.EnsureRegion(context.Background(), model); err != nil {
		t.Fatal(err)
	}
	st := idx.Stats()
	if st.EntriesVisited <= 0 {
		t.Error("EntriesVisited not counted")
	}
	if st.PeakMemory <= 0 {
		t.Error("PeakMemory not tracked")
	}
	// The paper's key claim: loading one cell visits far fewer entries
	// than the dataset holds across all dimensions (e <<< n).
	if st.EntriesVisited >= ds.Len()*ds.Dims() {
		t.Errorf("region load visited %d entries; full scan is %d", st.EntriesVisited, ds.Len()*ds.Dims())
	}
}

func TestBudgetEnforcedDuringExploration(t *testing.T) {
	// A budget of ~60 tuples with γ=40: the region install may truncate
	// but the ledger must never exceed capacity.
	budget := int64(60) * memcache.TupleBytes(5)
	idx, ds := openTestIndex(t, 2000, Options{MemoryBudgetBytes: budget, SampleSize: 40, Seed: 15})
	if err := idx.InitExploration(context.Background()); err != nil {
		t.Fatal(err)
	}
	region := testRegion(t, ds)
	model := boundaryModel(t, ds, region, 100)
	if _, err := idx.EnsureRegion(context.Background(), model); err != nil {
		t.Fatal(err)
	}
	if used := idx.Budget().Used(); used > budget {
		t.Errorf("budget exceeded: %d > %d", used, budget)
	}
	if peak := idx.Budget().Peak(); peak > budget {
		t.Errorf("peak exceeded budget: %d > %d", peak, budget)
	}
}
