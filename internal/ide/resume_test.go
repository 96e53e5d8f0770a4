package ide

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"github.com/uei-db/uei/internal/al"
	"github.com/uei-db/uei/internal/core"
	"github.com/uei-db/uei/internal/learn"
	"github.com/uei-db/uei/internal/obs"
	"github.com/uei-db/uei/internal/oracle"
)

// resumeConfig is the session every test in this file runs: DWKNN, least
// confidence, one seeded positive.
func resumeConfig(t *testing.T, f *fixture, labels int, picked *[]uint32) Config {
	return Config{
		MaxLabels:        labels,
		EstimatorFactory: f.estimatorFactory(t),
		Strategy:         al.LeastConfidence{},
		Seed:             7,
		SeedWithPositive: true,
		OnIteration:      func(it IterationInfo) { *picked = append(*picked, it.SelectedID) },
	}
}

// resumeStore is one built store the tests of this file open many times:
// every run needs its own index (the pool is consumed) and its own oracle
// (it counts labels), but not its own files.
type resumeStore struct {
	f   *fixture
	dir string
}

func newResumeStore(t *testing.T, n int, fraction float64) *resumeStore {
	t.Helper()
	f := newFixture(t, n, fraction)
	dir := t.TempDir()
	if err := core.Build(dir, f.ds, core.BuildOptions{TargetChunkBytes: 2048}); err != nil {
		t.Fatal(err)
	}
	return &resumeStore{f: f, dir: dir}
}

// open returns a provider over a fresh index of the store and a labeler
// with a full budget.
func (rs *resumeStore) open(t *testing.T, sample int) (*UEIProvider, Labeler) {
	t.Helper()
	idx, err := core.Open(context.Background(), rs.dir, core.Options{MemoryBudgetBytes: 1 << 20, SampleSize: sample, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(idx.Close)
	p, err := NewUEIProvider(idx)
	if err != nil {
		t.Fatal(err)
	}
	orc, err := oracle.New(rs.f.ds, rs.f.region)
	if err != nil {
		t.Fatal(err)
	}
	return p, OracleLabeler{O: orc}
}

// streamOnly hides a provider's CandidateCount, so the engine scores its
// stream one Score call per row — the from-scratch reference.
type streamOnly struct{ Provider }

// shuffling presents the wrapped pool out of order on two calls of three
// (and repeats a row on some), the same way for a given call number. It
// still claims a resident pool.
type shuffling struct {
	*UEIProvider
	calls int
}

func (p *shuffling) Candidates(ctx context.Context, fn func(id uint32, row []float64) bool) error {
	p.calls++
	if p.calls%3 == 0 {
		return p.UEIProvider.Candidates(ctx, fn)
	}
	var ids []uint32
	var rows [][]float64
	p.UEIProvider.Candidates(ctx, func(id uint32, row []float64) bool {
		ids = append(ids, id)
		rows = append(rows, append([]float64(nil), row...))
		return true
	})
	rng := rand.New(rand.NewSource(int64(p.calls)))
	order := rng.Perm(len(ids))
	if p.calls%2 == 0 && len(order) > 0 {
		order = append(order, order[0])
	}
	for _, i := range order {
		if !fn(ids[i], rows[i]) {
			break
		}
	}
	return nil
}

// A stream that does not ascend, or repeats an id, is scored exactly as the
// streaming path scores it — from scratch, nothing retained — and the
// ordered passes in between resume from nothing stale.
func TestResumedSelectionShuffledStream(t *testing.T) {
	rs := newResumeStore(t, 3000, 0.02)
	run := func(resident bool) []uint32 {
		inner, labeler := rs.open(t, 300)
		sh := &shuffling{UEIProvider: inner}
		var p Provider = sh
		if !resident {
			p = streamOnly{sh}
		}
		var picked []uint32
		sess, err := NewSession(resumeConfig(t, rs.f, 30, &picked), p, labeler)
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		for {
			if _, err := sess.Propose(ctx); err != nil {
				if errors.Is(err, ErrExplorationDone) {
					break
				}
				t.Fatal(err)
			}
			if resident && sess.phase == phaseReady {
				shuffled := sh.calls%3 != 0
				if shuffled && sess.poolTab.Len() != 0 {
					t.Fatalf("call %d: a shuffled pass retained %d lists", sh.calls, sess.poolTab.Len())
				}
				if !shuffled && sess.lastPass.Carried != 0 {
					t.Fatalf("call %d: an ordered pass after a shuffled one carried %d lists", sh.calls, sess.lastPass.Carried)
				}
			}
			if _, err := sess.Resolve(ctx); err != nil {
				t.Fatal(err)
			}
		}
		return picked
	}
	want := run(false)
	got := run(true)
	if len(want) == 0 || len(got) != len(want) {
		t.Fatalf("streaming labeled %d tuples, resumed %d", len(want), len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("iteration %d: streaming labeled #%d, resumed #%d", i+1, want[i], got[i])
		}
	}
}

// interrupting ends the candidate stream of one selection early, after
// `after` candidates: it cancels the step's context and, like a provider
// that reads storage, reports the cancellation — or, with quiet set, keeps
// streaming and leaves the engine to notice.
type interrupting struct {
	*UEIProvider
	call   int // which Candidates call to interrupt (1-based)
	after  int
	quiet  bool
	cancel context.CancelFunc
	calls  int
}

func (p *interrupting) Candidates(ctx context.Context, fn func(id uint32, row []float64) bool) error {
	p.calls++
	if p.calls != p.call {
		return p.UEIProvider.Candidates(ctx, fn)
	}
	n := 0
	var err error
	p.UEIProvider.Candidates(ctx, func(id uint32, row []float64) bool {
		if n == p.after {
			p.cancel()
			if !p.quiet {
				err = ctx.Err()
				return false
			}
		}
		n++
		return fn(id, row)
	})
	return err
}

// A selection cut short at any candidate leaves no stale list: the session
// goes on to label exactly what an uninterrupted one labels.
func TestResumedSelectionInterrupted(t *testing.T) {
	// The interrupted Candidates call: a selection a few labels in (the
	// seed lookup and the bootstrap draws come first).
	const labels, victim = 14, 6
	rs := newResumeStore(t, 3000, 0.02)
	run := func(sample, after int, quiet bool) (picked []uint32, pool int, failed bool) {
		inner, labeler := rs.open(t, sample)
		ip := &interrupting{UEIProvider: inner, call: victim, after: after, quiet: quiet}
		sess, err := NewSession(resumeConfig(t, rs.f, labels, &picked), ip, labeler)
		if err != nil {
			t.Fatal(err)
		}
		for {
			ctx, cancel := context.WithCancel(context.Background())
			ip.cancel = cancel
			interrupted := ip.calls+1 == victim && after >= 0
			p, err := sess.Propose(ctx)
			if errors.Is(err, ErrExplorationDone) {
				cancel()
				return picked, pool, failed
			}
			if err != nil {
				if !interrupted || !errors.Is(err, context.Canceled) {
					t.Fatalf("after=%d quiet=%v: Propose: %v", after, quiet, err)
				}
				failed = true
				if sess.poolTab.Len() != 0 {
					t.Fatalf("after=%d quiet=%v: the interrupted pass left %d lists", after, quiet, sess.poolTab.Len())
				}
				cancel()
				continue
			}
			if ip.calls == victim+1 && failed {
				// The selection that follows an interrupted one starts over.
				if sess.lastPass.Carried != 0 || sess.lastPass.Scanned != p.Pool {
					t.Fatalf("after=%d quiet=%v: the pass after the interruption tallied %+v over %d rows", after, quiet, sess.lastPass, p.Pool)
				}
			}
			pool = p.Pool
			// Resolve under a live context even when a quiet cancel slipped
			// past the engine's stride.
			if _, err := sess.Resolve(context.Background()); err != nil {
				t.Fatal(err)
			}
			cancel()
		}
	}
	check := func(sample int, want []uint32, after int, quiet, mustFail bool) {
		got, _, failed := run(sample, after, quiet)
		if failed != mustFail {
			t.Fatalf("after=%d quiet=%v: selection failed = %v, want %v", after, quiet, failed, mustFail)
		}
		if len(got) != len(want) {
			t.Fatalf("after=%d quiet=%v: labeled %d tuples, want %d", after, quiet, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("after=%d quiet=%v: iteration %d labeled #%d, uninterrupted #%d", after, quiet, i+1, got[i], want[i])
			}
		}
	}
	want, pool, _ := run(80, -1, false)
	if len(want) < labels-3 || pool < 60 {
		t.Fatalf("reference session labeled %d tuples over a pool of %d", len(want), pool)
	}
	for after := 0; after < pool; after++ {
		check(80, want, after, false, true)
	}
	// A provider that ignores the context: the engine's own check ends the
	// pass at its next stride, and a cancel behind the last stride is never
	// seen — the pass completes and its lists are good.
	want, pool, _ = run(600, -1, false)
	if len(want) < labels-3 || pool <= ctxCheckEvery {
		t.Fatalf("reference session labeled %d tuples over a pool of %d; the quiet cases need more than %d", len(want), pool, ctxCheckEvery)
	}
	for _, after := range []int{0, 1, ctxCheckEvery - 1} {
		check(600, want, after, true, true)
	}
	check(600, want, pool-1, true, false)
}

// The pool table's memory: allocated by the first selection, the same size
// for the whole session (44 labels, regions swapping underneath), on the
// gauge while held, and gone after Finish; the view's goes with Close.
func TestPoolTableLifetime(t *testing.T) {
	f := newFixture(t, 4000, 0.01)
	p := f.ueiProvider(t, 400)
	reg := p.Index().Registry()
	gauge := reg.Gauge(obs.ScoreStateBytesGauge)
	var picked []uint32
	cfg := resumeConfig(t, f, 44, &picked)
	cfg.Registry = reg
	sess, err := NewSession(cfg, p, OracleLabeler{O: f.orc})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var sized, view int64
	swaps := 0
	for {
		before := p.Index().Stats().RegionSwaps
		prop, err := sess.Propose(ctx)
		if errors.Is(err, ErrExplorationDone) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if prop.Bootstrap {
			if _, err := sess.Resolve(ctx); err != nil {
				t.Fatal(err)
			}
			continue
		}
		swaps += p.Index().Stats().RegionSwaps - before
		if sized == 0 {
			sized = sess.poolTab.Bytes()
			if sized == 0 {
				t.Fatal("the first selection allocated no table")
			}
			view = int64(gauge.Value()) - sized
			if view <= 0 {
				t.Fatalf("gauge %v does not cover the view's table beside the session's %d bytes", gauge.Value(), sized)
			}
		}
		if got := sess.poolTab.Bytes(); got != sized {
			t.Fatalf("iteration %d: table reallocated, %d -> %d bytes", sess.Iterations(), sized, got)
		}
		if got := int64(gauge.Value()); got != sized+view {
			t.Fatalf("iteration %d: gauge %d, want %d + %d", sess.Iterations(), got, sized, view)
		}
		if _, err := sess.Resolve(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if len(picked) < 40 || swaps < 3 {
		t.Fatalf("session labeled %d tuples over %d region swaps; the test needs a long session that swaps", len(picked), swaps)
	}
	if sess.poolTab.Bytes() != 0 || int64(gauge.Value()) != view {
		t.Fatalf("a done session holds %d bytes; gauge %v, want the view's %d", sess.poolTab.Bytes(), gauge.Value(), view)
	}
	if _, err := sess.Finish(ctx); err != nil {
		t.Fatal(err)
	}
	if sess.poolTab.Bytes() != 0 || int64(gauge.Value()) != view {
		t.Fatalf("after Finish the session holds %d bytes; gauge %v, want %d", sess.poolTab.Bytes(), gauge.Value(), view)
	}
	p.Index().Close()
	if gauge.Value() != 0 {
		t.Fatalf("after Close the gauge reads %v", gauge.Value())
	}
}

// A candidate scan that fails during the seed lookup fails the step with the
// scan's error instead of passing for a pool without a positive: no label
// is consumed, and the same session seeds and proceeds once the scan works.
func TestSeedLookupErrorConsumesNoLabel(t *testing.T) {
	rs := newResumeStore(t, 3000, 0.02)
	inner, labeler := rs.open(t, 80)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// The seed lookup is the session's first Candidates call.
	ip := &interrupting{UEIProvider: inner, call: 1, cancel: cancel}
	var picked []uint32
	sess, err := NewSession(resumeConfig(t, rs.f, 8, &picked), ip, labeler)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Propose(ctx); err == nil || !errors.Is(err, ctx.Err()) {
		t.Fatalf("Propose over a failing seed scan: %v, want %v", err, ctx.Err())
	}
	if sess.LabeledCount() != 0 || labeler.Count() != 0 {
		t.Fatalf("the failed seed lookup left %d labeled rows and consumed %d labels", sess.LabeledCount(), labeler.Count())
	}
	if _, err := sess.Run(context.Background()); err != nil {
		t.Fatalf("Run once the scan works: %v", err)
	}
	if len(sess.labeledY) == 0 || sess.labeledY[0] != learn.ClassPositive {
		t.Fatalf("the session did not start from a seeded positive: labels %v", sess.labeledY)
	}
	if len(picked) == 0 || labeler.Count() != 8 {
		t.Fatalf("the session ran %d iterations and consumed %d of 8 labels", len(picked), labeler.Count())
	}
}
