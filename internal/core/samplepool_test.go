package core

import (
	"context"
	"errors"
	"math/big"
	"slices"
	"sync"
	"testing"

	"github.com/uei-db/uei/internal/dataset"
	"github.com/uei-db/uei/internal/memcache"
)

// wantSample is U's ids by the pool's definition, with no pool: the rows
// below n whose mixed id is under τ = 2⁶⁴·min(1, 8γ/N̂) (N̂ is n rounded
// up to a power of two), τ doubled until γ rows pass, and γ of them drawn
// by memcache.SampleIDs under seed.
func wantSample(t *testing.T, n, gamma int, seed int64) []uint32 {
	t.Helper()
	hat := 1
	for hat < n {
		hat *= 2
	}
	two64 := new(big.Int).Lsh(big.NewInt(1), 64)
	tau := new(big.Int).Mul(two64, big.NewInt(int64(8*gamma)))
	tau.Div(tau, big.NewInt(int64(hat)))
	for {
		if tau.Cmp(two64) > 0 {
			tau.Set(two64)
		}
		var admitted []uint32
		for id := uint32(0); int(id) < n; id++ {
			if new(big.Int).SetUint64(mixID(id)).Cmp(tau) < 0 {
				admitted = append(admitted, id)
			}
		}
		if len(admitted) >= gamma || tau.Cmp(two64) == 0 {
			picks, err := memcache.SampleIDs(len(admitted), gamma, seed)
			if err != nil {
				t.Fatal(err)
			}
			out := make([]uint32, len(picks))
			for i, k := range picks {
				out[i] = admitted[k]
			}
			return out
		}
		tau.Lsh(tau, 1)
	}
}

// sampleOf opens a view of x with γ and seed, fills its U and returns U's
// ids and rows in id order.
func sampleOf(t *testing.T, x *Index, gamma int, seed int64) ([]uint32, [][]float64) {
	t.Helper()
	v, err := x.NewView(ViewOptions{MemoryBudgetBytes: 4 << 20, SampleSize: gamma, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	if err := v.InitExploration(context.Background()); err != nil {
		t.Fatal(err)
	}
	var ids []uint32
	var rows [][]float64
	v.Candidates(func(id uint32, row []float64) bool {
		ids, rows = append(ids, id), append(rows, slices.Clone(row))
		return true
	})
	return ids, rows
}

// poolRows returns the rows the index's sample pool reports holding.
func poolRows(x *Index) float64 { return x.reg.Gauge("uei_sample_pool_rows").Value() }

// poolReads returns the index registry's full and extend pool reads.
func poolReads(x *Index) (full, extend int64) {
	return x.reg.Counter(`uei_sample_pool_reads_total{kind="full"}`).Value(),
		x.reg.Counter(`uei_sample_pool_reads_total{kind="extend"}`).Value()
}

// openReferenceLayouts opens the reference rows as a flat store, an S = 4
// store and a live store fed the extra rows in two flushes (three
// segments), all holding the same rows under the same ids.
func openReferenceLayouts(t *testing.T) (all *dataset.Dataset, layouts map[string]*Index) {
	t.Helper()
	ctx := context.Background()
	base, extra, all := referenceRows(t)
	layouts = map[string]*Index{}
	for name, shards := range map[string]int{"flat": 0, "S=4": 4} {
		dir := t.TempDir()
		if err := Build(dir, all, BuildOptions{TargetChunkBytes: 2048, Shards: shards}); err != nil {
			t.Fatal(err)
		}
		idx, err := Open(ctx, dir, Options{MemoryBudgetBytes: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(idx.Close)
		layouts[name] = idx
	}
	live := buildLiveIndex(t, base, 0, Options{})
	for _, part := range [][][]float64{extra[:len(extra)/2], extra[len(extra)/2:]} {
		if _, err := live.Append(ctx, part); err != nil {
			t.Fatal(err)
		}
		if err := live.Flush(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := live.AdvanceSnapshot(); err != nil {
		t.Fatal(err)
	}
	layouts["flat-live"] = live
	for name, idx := range layouts {
		if idx.RowCount() != all.Len() {
			t.Fatalf("%s holds %d rows, want %d", name, idx.RowCount(), all.Len())
		}
	}
	return all, layouts
}

// TestSamplePoolMatchesAcrossLayouts: U's ids for one seed and γ follow
// the pool's definition on flat, S = 4 and flat-live layouts of the same
// rows, and its rows are the dataset's. γ ≥ N̂/8 admits every row, so the
// draw is SampleIDs over all of them, as before the pool.
func TestSamplePoolMatchesAcrossLayouts(t *testing.T) {
	all, layouts := openReferenceLayouts(t)
	for _, gamma := range []int{40, 150, all.Len() / 4} {
		for _, seed := range []int64{1, 9} {
			want := wantSample(t, all.Len(), gamma, seed)
			if len(want) != gamma {
				t.Fatalf("γ %d: the definition drew %d ids", gamma, len(want))
			}
			for _, name := range []string{"flat", "S=4", "flat-live"} {
				ids, rows := sampleOf(t, layouts[name], gamma, seed)
				if !slices.Equal(ids, want) {
					t.Fatalf("%s γ %d seed %d: U %v, want %v", name, gamma, seed, ids, want)
				}
				for i, id := range ids {
					if !slices.Equal(rows[i], all.Row(dataset.RowID(id))) {
						t.Fatalf("%s: U row %d is %v, dataset has %v", name, id, rows[i], all.Row(dataset.RowID(id)))
					}
				}
			}
		}
	}
	if want := wantSample(t, all.Len(), all.Len()/4, 1); slices.Equal(want, wantSample(t, all.Len(), all.Len()/4, 2)) {
		t.Errorf("two seeds drew the same U")
	}
}

// TestSamplePoolIgnoresEarlierViews: a view draws the same U from a fresh
// index as from one whose pool earlier views of larger γ grew, and reading
// the grown pool costs no chunk.
func TestSamplePoolIgnoresEarlierViews(t *testing.T) {
	fresh, _ := openTestIndex(t, 3000, Options{})
	used, _ := openTestIndex(t, 3000, Options{})
	want, wantRows := sampleOf(t, fresh, 60, 5)
	sampleOf(t, used, 60, 4)
	sampleOf(t, used, 240, 4)
	if full, extend := poolReads(used); full != 2 || extend != 0 {
		t.Errorf("a larger γ made %d full and %d extend reads, want 2 and 0", full, extend)
	}
	used.ResetIOStats()
	got, gotRows := sampleOf(t, used, 60, 5)
	if !slices.Equal(got, want) || !slices.EqualFunc(gotRows, wantRows, slices.Equal) {
		t.Errorf("after γ = 240 the index drew %v, a fresh one %v", got, want)
	}
	if b, c := used.IOStats(); b != 0 || c != 0 {
		t.Errorf("drawing from the grown pool read %d bytes in %d chunks", b, c)
	}
	if !slices.Equal(want, wantSample(t, 3000, 60, 5)) {
		t.Errorf("U %v is not the definition's", want)
	}
}

// TestSamplePoolSecondOpenReadsNothing: on a static index only the first
// view's InitExploration reads chunks; the second draws from the pool. The
// gauges report the pool's rows (between 4γ and 8γ) and bytes, and Close
// frees them.
func TestSamplePoolSecondOpenReadsNothing(t *testing.T) {
	idx, _ := openTestIndex(t, 3000, Options{})
	const gamma = 100
	sampleOf(t, idx, gamma, 1)
	if b, _ := idx.IOStats(); b == 0 {
		t.Fatal("the first open read nothing")
	}
	idx.ResetIOStats()
	ids, _ := sampleOf(t, idx, gamma, 2)
	if b, c := idx.IOStats(); b != 0 || c != 0 {
		t.Errorf("the second open read %d bytes in %d chunks, want none", b, c)
	}
	if !slices.Equal(ids, wantSample(t, 3000, gamma, 2)) {
		t.Errorf("second U is not the definition's")
	}
	rows := idx.reg.Gauge("uei_sample_pool_rows").Value()
	if rows < 4*gamma || rows > 8*gamma {
		t.Errorf("pool holds %v rows, want between 4γ and 8γ", rows)
	}
	if b := idx.reg.Gauge("uei_sample_pool_bytes").Value(); b != rows*float64(4+8*idx.Dims()) {
		t.Errorf("pool reports %v bytes for %v rows", b, rows)
	}
	if full, extend := poolReads(idx); full != 1 || extend != 0 {
		t.Errorf("%d full and %d extend reads, want 1 and 0", full, extend)
	}
	idx.Close()
	if r, b := idx.reg.Gauge("uei_sample_pool_rows").Value(), idx.reg.Gauge("uei_sample_pool_bytes").Value(); r != 0 || b != 0 {
		t.Errorf("closed index's pool reports %v rows, %v bytes", r, b)
	}
}

// TestSamplePoolEveryRow: γ ≥ N puts every row in U.
func TestSamplePoolEveryRow(t *testing.T) {
	idx, _ := openTestIndex(t, 300, Options{})
	ids, _ := sampleOf(t, idx, 500, 3)
	if len(ids) != 300 || ids[0] != 0 || ids[299] != 299 {
		t.Errorf("γ 500 over 300 rows drew %d ids", len(ids))
	}
}

// TestSamplePoolFollowsLiveAppends: after an append and a flush a view of
// the new epoch reads only the new segment's chunks and can draw an
// appended row; a view still pinned to the old epoch draws its own
// deterministic U, re-reading the pool under the older epoch's larger
// threshold.
func TestSamplePoolFollowsLiveAppends(t *testing.T) {
	ctx := context.Background()
	base, extra, _ := referenceRows(t)
	live := buildLiveIndex(t, base, 0, Options{})
	const gamma = 100
	oldRows := live.RowCount()
	first, _ := sampleOf(t, live, gamma, 1)
	if !slices.Equal(first, wantSample(t, oldRows, gamma, 1)) {
		t.Fatalf("first U is not the definition's")
	}
	older, err := live.NewView(ViewOptions{MemoryBudgetBytes: 1 << 20, SampleSize: gamma, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer older.Close()

	if _, err := live.Append(ctx, extra); err != nil {
		t.Fatal(err)
	}
	if err := live.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	before := live.TotalBytes()
	if _, err := live.AdvanceSnapshot(); err != nil {
		t.Fatal(err)
	}
	newBytes := live.TotalBytes() - before
	live.ResetIOStats()
	ids, _ := sampleOf(t, live, gamma, 3)
	if b, _ := live.IOStats(); b == 0 || b > newBytes {
		t.Errorf("the new epoch's open read %d bytes, want some of the new segment's %d", b, newBytes)
	}
	if !slices.Equal(ids, wantSample(t, live.RowCount(), gamma, 3)) {
		t.Errorf("new epoch's U is not the definition's")
	}
	if ids[len(ids)-1] < uint32(oldRows) {
		t.Errorf("no appended row in U %v", ids)
	}
	if full, extend := poolReads(live); full != 1 || extend != 1 {
		t.Errorf("%d full and %d extend reads, want 1 and 1", full, extend)
	}

	// The old epoch's N̂ is half the new one's, so its threshold is twice
	// the pool's now: one more full read, under the old epoch's rows.
	if err := older.InitExploration(ctx); err != nil {
		t.Fatal(err)
	}
	var got []uint32
	older.Candidates(func(id uint32, _ []float64) bool { got = append(got, id); return true })
	if !slices.Equal(got, wantSample(t, oldRows, gamma, 2)) {
		t.Errorf("old epoch's U %v is not the definition's", got)
	}
	if full, _ := poolReads(live); full != 2 {
		t.Errorf("%d full reads after the old epoch's open, want 2", full)
	}
	if again, _ := sampleOf(t, live, gamma, 3); !slices.Equal(again, ids) {
		t.Errorf("the new epoch's U moved after an old epoch's open")
	}
}

// TestSamplePoolCancelledReadKeepsNothing: a pool read cancelled mid-way
// fails the open with the context's error and keeps no row; the next open
// reads again under its own context and draws the definition's U.
func TestSamplePoolCancelledReadKeepsNothing(t *testing.T) {
	ctx := context.Background()
	_, layouts := openReferenceLayouts(t)
	idx := layouts["S=4"]
	cctx, cancel := context.WithCancel(ctx)
	idx.ShardCoordinator().SetFaultHook(func(sctx context.Context, shard int, op string) error {
		if op == "fetch" && shard == 2 {
			cancel()
			<-sctx.Done()
			return sctx.Err()
		}
		return nil
	})
	v, err := idx.NewView(ViewOptions{MemoryBudgetBytes: 1 << 20, SampleSize: 50, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	if err := v.InitExploration(cctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled open: want context.Canceled, got %v", err)
	}
	if n := idx.reg.Gauge("uei_sample_pool_rows").Value(); n != 0 {
		t.Errorf("a cancelled read left %v rows in the pool", n)
	}
	if v.CandidateCount() != 0 {
		t.Errorf("a cancelled open left %d rows in U", v.CandidateCount())
	}
	idx.ShardCoordinator().SetFaultHook(nil)
	if err := v.InitExploration(ctx); err != nil {
		t.Fatal(err)
	}
	var ids []uint32
	v.Candidates(func(id uint32, _ []float64) bool { ids = append(ids, id); return true })
	if !slices.Equal(ids, wantSample(t, idx.RowCount(), 50, 1)) {
		t.Errorf("open after a cancelled read drew %v", ids)
	}
	if full, _ := poolReads(idx); full != 1 {
		t.Errorf("%d full reads, want the one that finished", full)
	}
}

// TestSamplePoolConcurrentOpens: views of one index opening at once wait
// for one pool read and each draw the definition's U. Run with -race.
func TestSamplePoolConcurrentOpens(t *testing.T) {
	_, layouts := openReferenceLayouts(t)
	for _, name := range []string{"flat", "S=4", "flat-live"} {
		t.Run(name, func(t *testing.T) {
			idx := layouts[name]
			const views = 6
			got := make([][]uint32, views)
			var wg sync.WaitGroup
			for i := range views {
				wg.Add(1)
				go func() {
					defer wg.Done()
					v, err := idx.NewView(ViewOptions{MemoryBudgetBytes: 1 << 20, SampleSize: 80, Seed: int64(i)})
					if err != nil {
						t.Error(err)
						return
					}
					defer v.Close()
					if err := v.InitExploration(context.Background()); err != nil {
						t.Error(err)
						return
					}
					v.Candidates(func(id uint32, _ []float64) bool { got[i] = append(got[i], id); return true })
				}()
			}
			wg.Wait()
			for i, ids := range got {
				if want := wantSample(t, idx.RowCount(), 80, int64(i)); !slices.Equal(ids, want) {
					t.Errorf("view %d drew %v, want %v", i, ids, want)
				}
			}
			if full, extend := poolReads(idx); full != 1 || extend != 0 {
				t.Errorf("%d full and %d extend reads, want one read", full, extend)
			}
		})
	}
}

// TestSamplePoolOversizedGammaReadsNothing: a view whose γ its budget
// cannot hold fails with ErrBudgetExceeded before the draw reads a chunk,
// and the pool stays empty.
func TestSamplePoolOversizedGammaReadsNothing(t *testing.T) {
	idx, _ := openTestIndex(t, 3000, Options{})
	v, err := idx.NewView(ViewOptions{MemoryBudgetBytes: 64 << 10, SampleSize: 2000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	if err := v.InitExploration(context.Background()); !errors.Is(err, memcache.ErrBudgetExceeded) {
		t.Fatalf("γ 2000 in 64 KiB: want ErrBudgetExceeded, got %v", err)
	}
	if b, c := idx.IOStats(); b != 0 || c != 0 {
		t.Errorf("the refused open read %d bytes in %d chunks", b, c)
	}
	if n := poolRows(idx); n != 0 {
		t.Errorf("the refused open left %v rows in the pool", n)
	}
	if v.CandidateCount() != 0 || v.budget.Used() != 0 {
		t.Errorf("the refused open left %d rows, %d bytes in U", v.CandidateCount(), v.budget.Used())
	}
}

// TestSamplePoolDirectDrawKeepsNothing: a draw whose threshold admits more
// rows than the pool may hold fetches only its own γ rows, keeps none, and
// draws the definition's U; a draw that fits is pooled as before.
func TestSamplePoolDirectDrawKeepsNothing(t *testing.T) {
	idx, ds := openTestIndex(t, 3000, Options{})
	idx.samples.maxRows = 100
	direct := func() int64 { return idx.reg.Counter(`uei_sample_pool_reads_total{kind="direct"}`).Value() }
	for i := 1; i <= 2; i++ {
		ids, rows := sampleOf(t, idx, 60, 7)
		if !slices.Equal(ids, wantSample(t, 3000, 60, 7)) {
			t.Fatalf("direct draw %d: U %v is not the definition's", i, ids)
		}
		for j, id := range ids {
			if !slices.Equal(rows[j], ds.Row(dataset.RowID(id))) {
				t.Fatalf("direct draw %d: U row %d is %v, dataset has %v", i, id, rows[j], ds.Row(dataset.RowID(id)))
			}
		}
		if n := poolRows(idx); n != 0 {
			t.Errorf("direct draw %d left %v rows in the pool", i, n)
		}
		if got := direct(); got != int64(i) {
			t.Errorf("%d direct reads after %d draws", got, i)
		}
	}
	if full, extend := poolReads(idx); full != 0 || extend != 0 {
		t.Errorf("direct draws made %d full and %d extend reads", full, extend)
	}
	ids, _ := sampleOf(t, idx, 10, 7)
	if !slices.Equal(ids, wantSample(t, 3000, 10, 7)) {
		t.Errorf("pooled U %v is not the definition's", ids)
	}
	if n := poolRows(idx); n < 40 || n > 80 {
		t.Errorf("γ 10 pooled %v rows, want between 4γ and 8γ", n)
	}
}

// TestSamplePoolThreshold pins the threshold's arithmetic: 8γ/N̂ of 2⁶⁴,
// saturating at every row.
func TestSamplePoolThreshold(t *testing.T) {
	for _, c := range []struct {
		gamma, rows int
		want        uint64
	}{
		{2000, 150_000, 16_000 << (64 - 18)}, // N̂ = 2¹⁸
		{2000, 1 << 18, 16_000 << (64 - 18)},
		{2000, 1<<18 + 1, 16_000 << (64 - 19)},
		{1, 16, 1 << 63},
		{1, 8, tauAll},
		{2000, 0, tauAll},
		{5, 0, tauAll},
	} {
		if got := baseThreshold(c.gamma, c.rows); got != c.want {
			t.Errorf("baseThreshold(%d, %d) = %#x, want %#x", c.gamma, c.rows, got, c.want)
		}
	}
	if doubled(1<<62) != 1<<63 || doubled(1<<63) != tauAll || doubled(tauAll) != tauAll {
		t.Error("doubling does not saturate at every row")
	}
}
