package ide

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"github.com/uei-db/uei/internal/al"
	"github.com/uei-db/uei/internal/core"
	"github.com/uei-db/uei/internal/dataset"
	"github.com/uei-db/uei/internal/learn"
	"github.com/uei-db/uei/internal/obs"
	"github.com/uei-db/uei/internal/oracle"
)

// liveFixture is a fixture whose oracle and estimator are derived from a
// prefix of a larger dataset: the stores under test hold the prefix, and
// the remaining rows are the appends that land during exploration.
type liveFixture struct {
	prefix *dataset.Dataset
	orc    *oracle.Oracle
}

func newLiveFixture(t *testing.T, total, prefixLen int) *liveFixture {
	t.Helper()
	full, err := dataset.GenerateSky(dataset.SkyConfig{N: total, Seed: 61})
	if err != nil {
		t.Fatal(err)
	}
	prefix := dataset.New(full.Schema(), prefixLen)
	for i := 0; i < prefixLen; i++ {
		if _, err := prefix.Append(full.Row(dataset.RowID(i))); err != nil {
			t.Fatal(err)
		}
	}
	region, err := oracle.FindRegion(prefix, 0.02, 0.5, 5, 10)
	if err != nil {
		t.Fatal(err)
	}
	orc, err := oracle.New(prefix, region)
	if err != nil {
		t.Fatal(err)
	}
	return &liveFixture{prefix: prefix, orc: orc}
}

func (f *liveFixture) factory(t *testing.T) Config {
	t.Helper()
	bounds, err := f.prefix.Bounds()
	if err != nil {
		t.Fatal(err)
	}
	widths := bounds.Widths()
	return Config{
		MaxLabels:        25,
		EstimatorFactory: func() learn.Classifier { return learn.NewDWKNN(5, widths) },
		Strategy:         al.LeastConfidence{},
		Seed:             7,
		SeedWithPositive: true,
	}
}

// openPrefixIndex builds and opens a store over the fixture's prefix, with
// the golden session's prefetch settings when prefetch is set.
func (f *liveFixture) openPrefixIndex(t *testing.T, shards int, live, follow, prefetch bool) *core.Index {
	t.Helper()
	dir := t.TempDir()
	if err := core.Build(dir, f.prefix, core.BuildOptions{TargetChunkBytes: 2048, Shards: shards, LiveIngest: live}); err != nil {
		t.Fatal(err)
	}
	opts := core.Options{
		MemoryBudgetBytes: 1 << 20, SampleSize: 200, Seed: 3, Workers: 2,
		FollowLive: follow,
	}
	if shards > 1 {
		opts.Shards = shards
	}
	if prefetch {
		goldenPrefetch(&opts)
	}
	idx, err := core.Open(context.Background(), dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(idx.Close)
	return idx
}

// runLiveSession runs one full exploration over idx and returns its trace.
// When appender is true, a goroutine hammers the live write path — appends
// of in-bounds rows plus explicit flushes — for the whole run, so every
// iteration races durable ingest and epoch commits. The run and the
// appender's flushes share one obs trace (startTestTrace): the flushes land
// mid-session as flush spans under the root, from another goroutine, and
// the stream must still come out as one well-formed tree.
func (f *liveFixture) runLiveSession(t *testing.T, idx *core.Index, appender bool) sessionTrace {
	t.Helper()
	var (
		stop = make(chan struct{})
		wg   sync.WaitGroup
	)
	ctx, finish := startTestTrace(t)
	if appender {
		db := idx.Live()
		if db == nil {
			t.Fatal("appender requested on a non-live index")
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			flushed := false // keep going until one flush has landed
			for i := 0; ; i++ {
				select {
				case <-stop:
					if flushed {
						return
					}
				default:
				}
				// Re-append existing rows: values stay inside the pinned
				// grid bounds, so every append is accepted.
				row := f.prefix.CopyRow(dataset.RowID((i * 37) % f.prefix.Len()))
				if _, err := db.Append([][]float64{row}); err != nil {
					t.Errorf("concurrent append: %v", err)
					return
				}
				if i%8 == 7 {
					if err := db.Flush(ctx); err != nil {
						t.Errorf("concurrent flush: %v", err)
						return
					}
					flushed = true
				}
			}
		}()
	}
	p, err := NewUEIProvider(idx)
	if err != nil {
		t.Fatal(err)
	}
	var tr sessionTrace
	cfg := f.factory(t)
	cfg.OnIteration = func(it IterationInfo) {
		tr.picks = append(tr.picks, it.SelectedID)
		tr.degraded = append(tr.degraded, it.Degraded)
	}
	sess, err := NewSession(cfg, p, OracleLabeler{O: f.orc})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Run(ctx)
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	tree := finish(len(tr.picks))
	if got := countSpans(tree.Root, obs.SpanFlush); appender && got == 0 {
		t.Error("no flush span under the root although flushes landed mid-session")
	}
	tr.positive = res.Positive
	tr.labels = res.LabelsUsed
	return tr
}

// TestLiveSessionSnapshotIsolationParity is the acceptance gate for the
// streaming write path: a session over a live store pinned at epoch E must
// make byte-identical decisions — same labeled sequence, same retrieved
// result set — to a session over an immutable static index built from
// exactly E's rows, even while concurrent appends and flushes land
// throughout the run. Flat and sharded (S=2), under -race.
func TestLiveSessionSnapshotIsolationParity(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("S=%d", shards), func(t *testing.T) {
			f := newLiveFixture(t, 3000, 2000)
			static := f.runLiveSession(t, f.openPrefixIndex(t, shards, false, false, false), false)
			if len(static.picks) == 0 || len(static.positive) == 0 {
				t.Fatalf("static session degenerate: %d picks, %d positives", len(static.picks), len(static.positive))
			}

			// The oracle counts labels across its lifetime; rebuild the
			// fixture so the live run starts from the same state.
			f = newLiveFixture(t, 3000, 2000)
			idx := f.openPrefixIndex(t, shards, true, false, false)
			epoch := idx.LiveEpoch()
			live := f.runLiveSession(t, idx, true)

			if idx.LiveEpoch() != epoch {
				t.Errorf("pinned epoch moved during the session: %d -> %d", epoch, idx.LiveEpoch())
			}
			if idx.RowCount() != f.prefix.Len() {
				t.Errorf("pinned row count moved: %d, want %d", idx.RowCount(), f.prefix.Len())
			}
			if live.labels != static.labels {
				t.Errorf("labels used: live %d, static %d", live.labels, static.labels)
			}
			if len(live.picks) != len(static.picks) {
				t.Fatalf("live ran %d iterations, static %d", len(live.picks), len(static.picks))
			}
			for i := range live.picks {
				if live.picks[i] != static.picks[i] {
					t.Fatalf("iteration %d: live labeled row %d, static labeled %d", i, live.picks[i], static.picks[i])
				}
			}
			if len(live.positive) != len(static.positive) {
				t.Fatalf("live retrieved %d rows, static %d", len(live.positive), len(static.positive))
			}
			for i := range live.positive {
				if live.positive[i] != static.positive[i] {
					t.Fatalf("retrieved[%d]: live %d, static %d", i, live.positive[i], static.positive[i])
				}
			}
		})
	}
}

// TestLiveSessionFollowLive smokes the opt-in epoch-following mode: with
// FollowLive the provider advances the snapshot at iteration boundaries,
// so by the end of a run under concurrent ingest the session has moved
// past its opening epoch and completed without error. With prefetch on an
// advance can meet a background load still reading the old epoch through
// the index's coordinator; AdvanceSnapshot must stop that load before it
// replaces the coordinator and releases the epoch (run under -race).
func TestLiveSessionFollowLive(t *testing.T) {
	for _, prefetch := range []bool{false, true} {
		t.Run(fmt.Sprintf("prefetch=%v", prefetch), func(t *testing.T) {
			f := newLiveFixture(t, 3000, 2000)
			idx := f.openPrefixIndex(t, 1, true, true, prefetch)
			if !idx.FollowsLive() {
				t.Fatal("FollowsLive = false on a FollowLive open")
			}
			epoch := idx.LiveEpoch()
			// One epoch is committed before the session starts, so there is
			// something to advance to at the first iteration boundary
			// however the concurrent appender below is scheduled against
			// the session.
			if _, err := idx.Live().Append([][]float64{f.prefix.CopyRow(0)}); err != nil {
				t.Fatal(err)
			}
			if err := idx.Live().Flush(context.Background()); err != nil {
				t.Fatal(err)
			}
			tr := f.runLiveSession(t, idx, true)
			if len(tr.picks) == 0 {
				t.Fatal("follow-live session made no iterations")
			}
			if idx.LiveEpoch() <= epoch {
				t.Errorf("follow-live session never advanced: epoch still %d", idx.LiveEpoch())
			}
			if idx.RowCount() <= f.prefix.Len() {
				t.Errorf("follow-live RowCount = %d, want > %d", idx.RowCount(), f.prefix.Len())
			}
		})
	}
}
