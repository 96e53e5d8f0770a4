package main

import (
	"context"
	"errors"
	"fmt"

	"github.com/uei-db/uei/internal/al"
	"github.com/uei-db/uei/internal/core"
	"github.com/uei-db/uei/internal/dataset"
	"github.com/uei-db/uei/internal/ide"
	"github.com/uei-db/uei/internal/learn"
	"github.com/uei-db/uei/internal/oracle"
	"github.com/uei-db/uei/internal/server"
)

// managerTarget is rung B: the Manager's methods, no HTTP.
type managerTarget struct {
	m   *server.Manager
	ids []string
}

func newManagerTarget(m *server.Manager, sessions int) *managerTarget {
	return &managerTarget{m: m, ids: make([]string, sessions)}
}

func (t *managerTarget) create(i int, p sessionPlan) error {
	info, err := t.m.Create(context.Background(), p.spec())
	t.ids[i] = info.ID
	return err
}

func (t *managerTarget) step(i int) (stepInfo, error) {
	resp, err := t.m.Step(context.Background(), t.ids[i], server.StepRequest{})
	if err != nil {
		return stepInfo{}, err
	}
	return stepInfoOf(resp)
}

func (t *managerTarget) result(i int) ([]uint32, error) {
	res, err := t.m.Result(context.Background(), t.ids[i])
	return res.Positive, err
}

func (t *managerTarget) remove(i int) error { return t.m.Delete(t.ids[i]) }

func (t *managerTarget) appendRows(b appendBatch) (uint32, int, error) {
	resp, err := t.m.Append(context.Background(), server.AppendRequest{Rows: b.Rows})
	return resp.FirstID, resp.TotalRows, err
}

func (t *managerTarget) flush() error { return t.m.Index().Flush(context.Background()) }

// engineTarget is rung C: ide sessions over views of the served index,
// configured exactly as server.materializeLocked configures them, with a
// timing wrapper at the ide.Provider seam. It also yields each session's
// final model, which the correctness gate needs for its brute-force scan.
type engineTarget struct {
	idx   *core.Index
	ds    *dataset.Dataset
	grant int64
	rec   *recorder
	sess  []*engineSession
	// loaded collects the distinct cells the sessions made resident, in
	// first-load order (inputs for the isolated layer calls).
	loaded []int
	seen   map[int]bool
	// labeled collects each session's final labeled set.
	labeled []ide.Snapshot
}

type engineSession struct {
	view   *core.Index
	sess   *ide.Session
	result *ide.Result
}

func newEngineTarget(idx *core.Index, ds *dataset.Dataset, grant int64, sessions int, rec *recorder) *engineTarget {
	return &engineTarget{idx: idx, ds: ds, grant: grant, rec: rec,
		sess: make([]*engineSession, sessions), seen: map[int]bool{}}
}

func (t *engineTarget) create(i int, p sessionPlan) error {
	id := t.rec.begin()
	view, err := t.idx.NewView(core.ViewOptions{MemoryBudgetBytes: t.grant, SampleSize: sampleSize, Seed: p.Seed})
	t.rec.end(id, "core.new_view")
	if err != nil {
		return err
	}
	inner, err := ide.NewUEIProvider(view)
	if err != nil {
		view.Close()
		return err
	}
	user, err := oracle.New(t.ds, p.Region)
	if err != nil {
		view.Close()
		return err
	}
	scales := t.idx.Bounds().Widths()
	sess, err := ide.NewSession(ide.Config{
		MaxLabels:        p.Labels,
		EstimatorFactory: func() learn.Classifier { return learn.NewDWKNN(7, scales) },
		Strategy:         al.LeastConfidence{},
		Seed:             p.Seed,
		SeedWithPositive: true,
		Registry:         t.idx.Registry(),
	}, &timedProvider{UEIProvider: inner, t: t}, ide.OracleLabeler{O: user})
	if err != nil {
		view.Close()
		return err
	}
	t.sess[i] = &engineSession{view: view, sess: sess}
	return nil
}

// step mirrors server.stepLocked for an oracle session: bootstrap
// resolutions are folded into the step that lands the first iteration, and
// the step that finds the budget spent runs result retrieval.
func (t *engineTarget) step(i int) (stepInfo, error) {
	ctx := context.Background()
	s := t.sess[i]
	for {
		id := t.rec.begin()
		_, err := s.sess.Propose(ctx)
		t.rec.end(id, "ide.propose")
		if errors.Is(err, ide.ErrExplorationDone) {
			id := t.rec.begin()
			s.result, err = s.sess.Finish(ctx)
			t.rec.end(id, "ide.finish")
			return stepInfo{Done: true}, err
		}
		if err != nil {
			return stepInfo{}, err
		}
		id = t.rec.begin()
		info, err := s.sess.Resolve(ctx)
		t.rec.end(id, "ide.resolve")
		if err != nil {
			return stepInfo{}, err
		}
		if info == nil {
			continue
		}
		if info.Degraded {
			return stepInfo{}, errors.New("step degraded")
		}
		return stepInfo{Iteration: info.Iteration, SelectedID: info.SelectedID, Positive: info.Label == oracle.Positive}, nil
	}
}

func (t *engineTarget) result(i int) ([]uint32, error) {
	if t.sess[i].result == nil {
		return nil, fmt.Errorf("session %d has no result", i)
	}
	return t.sess[i].result.Positive, nil
}

func (t *engineTarget) remove(i int) error {
	t.labeled = append(t.labeled, t.sess[i].sess.Snapshot())
	t.sess[i].view.Close()
	return nil
}

func (t *engineTarget) appendRows(b appendBatch) (uint32, int, error) {
	first, err := t.idx.Append(context.Background(), b.Rows)
	if err != nil {
		return 0, 0, err
	}
	return first, t.idx.Live().TotalRows(), nil
}

func (t *engineTarget) flush() error { return t.idx.Flush(context.Background()) }

// model returns session i's final model (nil before its terminal step).
func (t *engineTarget) model(i int) learn.Classifier {
	if s := t.sess[i]; s != nil && s.result != nil {
		return s.result.Model
	}
	return nil
}

// timedProvider puts a span around the four ide.Provider calls that do
// work. Embedding the real provider keeps every other method (and the
// LastStepDegraded probe the engine type-asserts for) on the path the
// server takes; the classifier and scorer are deliberately not wrapped,
// because core and learn type-assert on their concrete types.
type timedProvider struct {
	*ide.UEIProvider
	t *engineTarget
}

func (p *timedProvider) Prepare(ctx context.Context) error {
	id := p.t.rec.begin()
	defer p.t.rec.end(id, "core.init_exploration")
	return p.UEIProvider.Prepare(ctx)
}

func (p *timedProvider) BeforeSelect(ctx context.Context, model learn.Classifier) error {
	id := p.t.rec.begin()
	err := p.UEIProvider.BeforeSelect(ctx, model)
	p.t.rec.end(id, "core.before_select")
	if cell := p.Index().ResidentRegion(); err == nil && cell >= 0 && !p.t.seen[cell] {
		p.t.seen[cell] = true
		p.t.loaded = append(p.t.loaded, cell)
	}
	return err
}

func (p *timedProvider) Candidates(ctx context.Context, fn func(id uint32, row []float64) bool) error {
	id := p.t.rec.begin()
	defer p.t.rec.end(id, "core.candidates")
	return p.UEIProvider.Candidates(ctx, fn)
}

func (p *timedProvider) Retrieve(ctx context.Context, model learn.Classifier) ([]uint32, error) {
	id := p.t.rec.begin()
	defer p.t.rec.end(id, "core.retrieve")
	return p.UEIProvider.Retrieve(ctx, model)
}
