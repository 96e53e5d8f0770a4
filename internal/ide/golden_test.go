package ide

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"testing"
	"time"

	"github.com/uei-db/uei/internal/al"
	"github.com/uei-db/uei/internal/core"
	"github.com/uei-db/uei/internal/dataset"
	"github.com/uei-db/uei/internal/iothrottle"
	"github.com/uei-db/uei/internal/learn"
	"github.com/uei-db/uei/internal/oracle"
)

// goldenSessionDigest is the FNV-64a digest of (labeled row ids in order,
// retrieved result ids, final Uncertainties() bits) of one seeded session.
// It was re-recorded when U became a draw from the index's sample pool
// (which changed the session's sample), and it is the same value for every
// layout and worker count below: the layouts hold the same rows under the
// same ids over the same grid, and the pool admits a row by its id alone,
// so every decision is identical.
const goldenSessionDigest uint64 = 0xbafd2324e8e25f93

// goldenPrefetchDigest is the digest of the same session with prefetch on
// (goldenPrefetch): every layout holds 2400 rows, so θ = ⌈28.8 µs / 10 µs⌉
// = 3 for all of them, and each swap lands three iterations after the
// first selection of a cell other than the resident one, however long the
// load takes.
const goldenPrefetchDigest uint64 = 0xca45995831b4cb34

// goldenPrefetch turns prefetch on under a 1 GB/s limiter and σ = 10 µs,
// which gives θ ≥ 2 on the golden store.
func goldenPrefetch(o *core.Options) {
	o.EnablePrefetch = true
	o.Limiter = iothrottle.New(1_000_000_000)
	o.LatencyThreshold = 10 * time.Microsecond
}

// goldenDataset returns a base dataset and the rows a live store ingests
// after creation. Every extra row lies inside the base's bounds, so
// base+extra has the base's bounds and a static build over all rows uses
// exactly the grid the live store pinned at creation.
func goldenDataset(t *testing.T) (base *dataset.Dataset, extra [][]float64, all *dataset.Dataset) {
	t.Helper()
	full, err := dataset.GenerateSky(dataset.SkyConfig{N: 2400, Seed: 61})
	if err != nil {
		t.Fatal(err)
	}
	const baseLen = 1200
	base = dataset.New(full.Schema(), baseLen)
	all = dataset.New(full.Schema(), full.Len())
	for i := 0; i < baseLen; i++ {
		row := full.Row(dataset.RowID(i))
		if _, err := base.Append(row); err != nil {
			t.Fatal(err)
		}
		if _, err := all.Append(row); err != nil {
			t.Fatal(err)
		}
	}
	bounds, err := base.Bounds()
	if err != nil {
		t.Fatal(err)
	}
	for i := baseLen; i < full.Len(); i++ {
		row := full.CopyRow(dataset.RowID(i))
		if !bounds.Contains(row) {
			continue
		}
		extra = append(extra, row)
		if _, err := all.Append(row); err != nil {
			t.Fatal(err)
		}
	}
	if len(extra) < 600 {
		t.Fatalf("only %d in-bounds extra rows", len(extra))
	}
	return base, extra, all
}

// goldenFixture opens the golden stores and runs the golden session.
type goldenFixture struct {
	base, all *dataset.Dataset
	extra     [][]float64
	region    oracle.Region
	widths    []float64
}

func newGoldenFixture(t *testing.T) *goldenFixture {
	t.Helper()
	base, extra, all := goldenDataset(t)
	region, err := oracle.FindRegion(all, 0.02, 0.5, 5, 10)
	if err != nil {
		t.Fatal(err)
	}
	bounds, err := all.Bounds()
	if err != nil {
		t.Fatal(err)
	}
	return &goldenFixture{base: base, all: all, extra: extra, region: region, widths: bounds.Widths()}
}

// open builds layout ("flat", "S=4" or "flat-live", the last with two
// flushes so reads merge three segments) and opens it; tune, when set,
// adjusts the options.
func (g *goldenFixture) open(t *testing.T, layout string, workers int, tune func(*core.Options)) *core.Index {
	t.Helper()
	ctx := context.Background()
	dir := t.TempDir()
	bo := core.BuildOptions{TargetChunkBytes: 2048}
	src := g.all
	switch layout {
	case "S=4":
		bo.Shards = 4
	case "flat-live":
		bo.LiveIngest = true
		src = g.base
	}
	if err := core.Build(dir, src, bo); err != nil {
		t.Fatal(err)
	}
	opts := core.Options{MemoryBudgetBytes: 1 << 20, SampleSize: 200, Seed: 3, Workers: workers}
	if tune != nil {
		tune(&opts)
	}
	idx, err := core.Open(ctx, dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(idx.Close)
	if layout == "flat-live" {
		for _, part := range [][][]float64{g.extra[:len(g.extra)/2], g.extra[len(g.extra)/2:]} {
			if _, err := idx.Append(ctx, part); err != nil {
				t.Fatal(err)
			}
			if err := idx.Flush(ctx); err != nil {
				t.Fatal(err)
			}
		}
		if moved, err := idx.AdvanceSnapshot(); err != nil || !moved {
			t.Fatalf("AdvanceSnapshot = %v, %v", moved, err)
		}
	}
	if idx.RowCount() != g.all.Len() {
		t.Fatalf("%s holds %d rows, want %d", layout, idx.RowCount(), g.all.Len())
	}
	return idx
}

// run runs the golden session over idx and returns its labeled ids, its
// result ids and the digest of both plus the final uncertainties.
func (g *goldenFixture) run(t *testing.T, idx *core.Index) (picks, positive []uint32, digest uint64) {
	t.Helper()
	p, err := NewUEIProvider(idx)
	if err != nil {
		t.Fatal(err)
	}
	// The oracle counts labels over its lifetime: one per run.
	orc, err := oracle.New(g.all, g.region)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewSession(Config{
		MaxLabels:        25,
		EstimatorFactory: func() learn.Classifier { return learn.NewDWKNN(5, g.widths) },
		Strategy:         al.LeastConfidence{},
		Seed:             7,
		SeedWithPositive: true,
		OnIteration:      func(it IterationInfo) { picks = append(picks, it.SelectedID) },
	}, p, OracleLabeler{O: orc})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Positive) == 0 {
		t.Fatal("session retrieved nothing")
	}
	h := fnv.New64a()
	var b [8]byte
	for _, id := range append(slices.Clone(picks), res.Positive...) {
		binary.LittleEndian.PutUint32(b[:4], id)
		h.Write(b[:4])
	}
	for _, u := range idx.Uncertainties() {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(u))
		h.Write(b[:])
	}
	return picks, res.Positive, h.Sum64()
}

// TestGoldenSessionDigest pins the bytes a session produces across the
// data-plane refactor: flat, sharded and flat-live (two flushes, so reads
// merge three segments) must all reproduce the digest recorded at the
// parent commit, at one worker and at four. With prefetch on they must all
// reproduce one other digest: the swap schedule is a function of the rows,
// the limiter and σ, not of how long a load took.
func TestGoldenSessionDigest(t *testing.T) {
	g := newGoldenFixture(t)
	for _, prefetch := range []bool{false, true} {
		want, tune, prefix := goldenSessionDigest, func(*core.Options) {}, ""
		if prefetch {
			want, tune, prefix = goldenPrefetchDigest, goldenPrefetch, "prefetch/"
		}
		for _, layout := range []string{"flat", "S=4", "flat-live"} {
			for _, workers := range []int{1, 4} {
				t.Run(fmt.Sprintf("%s%s/workers=%d", prefix, layout, workers), func(t *testing.T) {
					idx := g.open(t, layout, workers, tune)
					if _, _, got := g.run(t, idx); got != want {
						t.Errorf("session digest %#x, recorded %#x", got, want)
					}
					if st := idx.Stats(); prefetch != (st.SwapsDeferred > 0) {
						t.Errorf("prefetch %v, %d deferred swaps", prefetch, st.SwapsDeferred)
					}
				})
			}
		}
	}
}

// TestPrefetchScheduleIgnoresLoadTiming runs the prefetch-on golden session
// three times with every load attempt delayed by 0, 1 ms and 20 ms. The
// labeled ids and result ids must not move, although the delays change how
// long a swap waits for its load: the 20 ms run must wait in Await at least
// once, every run defers swaps, and every run swaps again after its first
// region: the golden session's target moves within θ iterations, and a
// retarget must not restart the deferral count.
func TestPrefetchScheduleIgnoresLoadTiming(t *testing.T) {
	g := newGoldenFixture(t)
	var firstPicks, firstPositive []uint32
	for i, delay := range []time.Duration{0, time.Millisecond, 20 * time.Millisecond} {
		idx := g.open(t, "flat", 1, goldenPrefetch)
		idx.ShardCoordinator().SetFaultHook(func(ctx context.Context, _ int, op string) error {
			if op != "load" || delay == 0 {
				return nil
			}
			select {
			case <-time.After(delay):
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		})
		picks, positive, _ := g.run(t, idx)
		st := idx.Stats()
		// The first region loads synchronously (nothing resident); every
		// later swap went through Await, and the ones not found done waited.
		waited := st.RegionSwaps - 1 - st.PrefetchHits
		t.Logf("delay %v: %d swaps, %d deferred, %d found done, %d waited", delay, st.RegionSwaps, st.SwapsDeferred, st.PrefetchHits, waited)
		if st.SwapsDeferred == 0 {
			t.Errorf("delay %v: no swap was deferred", delay)
		}
		if st.RegionSwaps < 2 {
			t.Errorf("delay %v: %d swaps; the schedule is only checked by swaps after the first", delay, st.RegionSwaps)
		}
		if delay == 20*time.Millisecond && waited == 0 {
			t.Errorf("delay %v: no swap waited for its load", delay)
		}
		if i == 0 {
			firstPicks, firstPositive = picks, positive
			continue
		}
		if !slices.Equal(picks, firstPicks) {
			t.Errorf("delay %v: labeled %v, undelayed run labeled %v", delay, picks, firstPicks)
		}
		if !slices.Equal(positive, firstPositive) {
			t.Errorf("delay %v: retrieved %d ids, undelayed run %d (or different ids)", delay, len(positive), len(firstPositive))
		}
	}
}
