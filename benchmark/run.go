package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"github.com/uei-db/uei/internal/dataset"
)

// maxRounds caps the timed rounds of a run however long -seconds is.
const maxRounds = 32

// setupReps is how many times a run sets up; the median is reported.
const setupReps = 3

type runOptions struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	Quick    bool
	OutDir   string
}

// roundDiag is one timed round's raw (not noise-floored) view, kept in the
// result file so a noisy run can be recognised afterwards.
type roundDiag struct {
	RawStepP50Ms float64 `json:"raw_step_p50_ms"`
	CalibMs      float64 `json:"calib_ms"`
	StealTicks   uint64  `json:"steal_ticks"`
	NoiseFrac    float64 `json:"noise_frac"`
	WallS        float64 `json:"wall_s"`
	Kept         bool    `json:"kept"`
}

// runResult is the result file. Metrics holds the run's contract metrics
// (end-to-end for an untraced run, per-layer for a traced one) plus the
// resultFileOnly ones.
type runResult struct {
	Workload  string            `json:"workload"`
	Why       string            `json:"why"`
	Seed      int64             `json:"seed"`
	Trace     bool              `json:"trace"`
	Quick     bool              `json:"quick,omitempty"`
	Host      hostRecord        `json:"host"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Diagnostics, not metrics.
	Rounds        []roundDiag `json:"rounds"`
	NoiseFrac     float64     `json:"noise_frac"`
	TerminalShare float64     `json:"terminal_share"`
	GenS          float64     `json:"dataset_gen_s"`
	PlanS         float64     `json:"region_search_s"`
	SetupRunsS    []float64   `json:"setup_runs_s"`
	SetupSlow     []float64   `json:"setup_slowdowns"`
	CheckS        float64     `json:"check_s"`
	ReopenMs      float64     `json:"reopen_ms,omitempty"`
	TotalS        float64     `json:"total_s"`
	LabelDigest   string      `json:"label_digest"`
	ResultDigest  string      `json:"result_digest"`
	Problems      []string    `json:"problems,omitempty"`
}

func (r *runResult) set(name string, v float64, samples int) {
	for _, defs := range [][]metricDef{endToEnd, perLayer, resultFileOnly} {
		for _, d := range defs {
			if d.Name == name {
				r.Metrics[name] = metric{Value: v, Unit: d.Unit, Samples: samples}
				return
			}
		}
	}
	panic("benchmark: undeclared metric " + name)
}

// setScaled reports a time (or a rate) measured as raw on a host that ran
// slow times slower than nominal, at nominal host speed: raw/slow. The
// measured value and the factor stay in the result file.
func (r *runResult) setScaled(name string, raw, slow float64, samples int) {
	r.set(name, raw/slow, samples)
	m := r.Metrics[name]
	m.Measured, m.Slowdown = raw, slow
	r.Metrics[name] = m
}

func (r *runResult) problem(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// runner carries one run's fixtures.
type runner struct {
	ctx  context.Context
	opts runOptions
	w    workload
	ds   *dataset.Dataset
	plan plan
	src  rowSource
	sc   *scratch
	res  *runResult
	// base is the pristine store built at set-up. Static workloads serve
	// it directly; live rounds each serve a fresh copy.
	base string
	// buildS is how long core.Build took for base.
	buildS float64
	// wrap, when set (the traced run's timing middleware), wraps the
	// handler of every service started for rounds.
	wrap handlerWrap
	// cal, when set, samples the calibration kernel after every operation
	// of a timed round.
	cal *calibrator
}

func run(opts runOptions) (*runResult, error) {
	start := time.Now()
	w, err := findWorkload(opts.Workload, opts.Quick)
	if err != nil {
		return nil, err
	}
	sc, err := newScratch(opts.OutDir, w.Name)
	if err != nil {
		return nil, err
	}
	defer sc.remove()
	r := &runner{ctx: context.Background(), opts: opts, w: w, sc: sc, res: &runResult{
		Workload: w.Name, Why: w.Why, Seed: opts.Seed, Trace: opts.Trace, Quick: opts.Quick,
		Host: readHost(), Metrics: map[string]metric{},
	}}

	t0 := time.Now()
	if r.ds, err = dataset.GenerateSky(dataset.SkyConfig{N: w.Rows, Seed: datasetSeed}); err != nil {
		return nil, err
	}
	r.res.GenS = time.Since(t0).Seconds()
	t0 = time.Now()
	if r.plan, err = makePlan(w, r.ds, opts.Seed); err != nil {
		return nil, err
	}
	r.res.PlanS = time.Since(t0).Seconds()
	r.src = rowSource{ds: r.ds, appends: r.plan.Appends}

	if opts.Trace {
		err = r.traced()
	} else {
		err = r.untraced()
	}
	if err != nil {
		return nil, err
	}
	r.res.Correct = r.res.Failed == 0 && len(r.res.Problems) == 0
	r.res.TotalS = time.Since(start).Seconds()
	return r.res, writeResult(opts.OutDir, r.res)
}

// setUp times the path from a dataset to a served, warmed store: core.Build
// into a fresh directory, server.NewManager behind a listener, and one
// warm-up session. The store it leaves behind becomes r.base.
func (r *runner) setUp() (float64, error) {
	dir := r.sc.dir("store")
	t0 := time.Now()
	if err := buildStore(dir, r.ds, r.w); err != nil {
		return 0, err
	}
	r.buildS = time.Since(t0).Seconds()
	svc, err := startService(r.ctx, serverConfig(r.w, dir), nil)
	if err != nil {
		return 0, err
	}
	werr := r.warm(svc)
	elapsed := time.Since(t0).Seconds()
	if err := svc.stop(r.ctx); err != nil {
		return 0, err
	}
	if werr != nil {
		return 0, werr
	}
	if r.base != "" {
		if err := os.RemoveAll(r.base); err != nil {
			return 0, err
		}
	}
	r.base = dir
	return elapsed, nil
}

// warm runs the list's first session to completion, untimed: the server
// reconstructs its oracle dataset on the first oracle session, and the
// session touches every chunk once.
func (r *runner) warm(svc *service) error {
	t := newHTTPTarget(svc, 1)
	defer t.close()
	w := r.w
	w.Live = false // a warm-up never appends
	rr := replayRound(t, plan{Sessions: r.plan.Sessions[:1]}, w, nil, nil)
	for _, op := range rr.Ops {
		if op.Failed {
			return fmt.Errorf("warm-up session: %s failed", op.Kind)
		}
	}
	return nil
}

// touch creates and deletes one session: enough to make a fresh Manager
// reconstruct its oracle dataset before a live round is timed.
func (r *runner) touch(svc *service) error {
	t := newHTTPTarget(svc, 1)
	defer t.close()
	if err := t.create(0, r.plan.Sessions[0]); err != nil {
		return fmt.Errorf("warm-up create: %w", err)
	}
	return t.remove(0)
}

// serve starts a service for one or more rounds. Live workloads get a
// fresh copy of the base store each time, so every round starts from the
// same epoch; static workloads serve the base store.
func (r *runner) serve() (*service, string, error) {
	dir := r.base
	if r.w.Live {
		dir = r.sc.dir("live")
		if err := copyDir(r.base, dir); err != nil {
			return nil, "", err
		}
	}
	svc, err := startService(r.ctx, serverConfig(r.w, dir), r.wrap)
	if err != nil {
		return nil, "", err
	}
	if r.w.Live {
		if err := r.touch(svc); err != nil {
			_ = svc.stop(r.ctx)
			return nil, "", err
		}
	}
	return svc, dir, nil
}

// roundsOn replays the plan n times through targets made by build. A static
// workload's rounds all run on svc, which the caller owns; a live
// workload's rounds each get a fresh store copy and service (svc is nil).
// observe, when non-nil, brackets each round. It returns the rounds and the
// directory the last round served.
func (r *runner) roundsOn(svc *service, n int, rec *recorder,
	build func(*service) (target, func()), observe func(*service) func()) ([]roundResult, string, error) {
	var out []roundResult
	dir := r.base
	for len(out) < n {
		s := svc
		if r.w.Live {
			if len(out) > 0 {
				if err := os.RemoveAll(dir); err != nil {
					return nil, "", err
				}
			}
			var err error
			if s, dir, err = r.serve(); err != nil {
				return nil, "", err
			}
		}
		t, done := build(s)
		after := func() {}
		if observe != nil {
			after = observe(s)
		}
		out = append(out, replayRound(t, r.plan, r.w, rec, r.cal))
		after()
		done()
		if r.w.Live {
			if err := s.stop(r.ctx); err != nil {
				return nil, "", err
			}
		}
	}
	return out, dir, nil
}

// overHTTP builds the closed-loop HTTP client: one keep-alive connection.
func (r *runner) overHTTP(s *service) (target, func()) {
	t := newHTTPTarget(s, len(r.plan.Sessions))
	return t, func() {
		t.close()
		for _, g := range t.grants {
			if g != 0 && g != r.w.SessionBudgetBytes {
				r.res.problem("session granted %d bytes, workload expects %d", g, r.w.SessionBudgetBytes)
			}
		}
	}
}

// reference replays the plan once at the engine level (rung C of the
// ladder), untimed. It is the round every HTTP round must reproduce, it
// yields the final models the correctness gate needs, and it warms the page
// cache and the block cache. For a static workload the service it ran on is
// returned, warmed, for the HTTP rounds to use.
func (r *runner) reference(rec *recorder) (roundResult, *engineTarget, *service, error) {
	svc, dir, err := r.serve()
	if err != nil {
		return roundResult{}, nil, nil, err
	}
	eng := newEngineTarget(svc.m.Index(), r.ds, r.w.SessionBudgetBytes, len(r.plan.Sessions), rec)
	ref := replayRound(eng, r.plan, r.w, rec, nil)
	if ref.Err != nil {
		r.res.problem("reference replay: %v", ref.Err)
	}
	for _, op := range ref.Ops {
		if op.Failed {
			r.res.problem("reference replay: %s of session %d failed", op.Kind, op.Session)
		}
	}
	if r.w.Live {
		if err := svc.stop(r.ctx); err != nil {
			return roundResult{}, nil, nil, err
		}
		return ref, eng, nil, os.RemoveAll(dir)
	}
	if err := r.touch(svc); err != nil {
		_ = svc.stop(r.ctx)
		return roundResult{}, nil, nil, err
	}
	return ref, eng, svc, nil
}

// rounds is how many timed rounds -seconds buys: fixed work, so the count
// depends on the argument alone, never on how fast this host happens to be.
func (r *runner) rounds() int {
	n := int(r.opts.Seconds / r.w.RoundSeconds)
	if n < r.w.MinRounds || r.opts.Quick {
		n = r.w.MinRounds
	}
	if n > maxRounds {
		n = maxRounds
	}
	return n
}

func (r *runner) untraced() error {
	// Set-up, several times, a burst of calibration samples after each.
	reps := setupReps
	if r.opts.Quick {
		reps = 1
	}
	r.cal = newCalibrator()
	for i := 0; i < reps; i++ {
		s, err := r.setUp()
		if err != nil {
			return err
		}
		r.res.SetupRunsS = append(r.res.SetupRunsS, s)
		r.res.SetupSlow = append(r.res.SetupSlow, r.cal.burst(setupBurst))
	}
	// Set-up is too long for any repetition to be a clean one: the median
	// repetition, each at nominal host speed, not the fastest.
	scaledReps := make([]float64, reps)
	for i, s := range r.res.SetupRunsS {
		scaledReps[i] = s / r.res.SetupSlow[i]
	}
	setup := median(r.res.SetupRunsS)
	slow := setup / median(scaledReps)
	r.res.setScaled("setup_s", setup, slow, reps)

	ref, eng, svc, err := r.reference(nil)
	if err != nil {
		return err
	}
	rounds, lastDir, err := r.roundsOn(svc, r.rounds(), nil, r.overHTTP, nil)
	if svc != nil {
		if serr := svc.stop(r.ctx); err == nil {
			err = serr
		}
	}
	if err != nil {
		return err
	}
	rss := peakRSSMB()

	floor, attempted, failed, kept := noiseFloor(ref, rounds)
	if len(kept) == 0 {
		return fmt.Errorf("none of the %d timed rounds reproduced the reference replay", len(rounds))
	}
	r.res.Attempted, r.res.Failed = attempted, failed
	calib := make([][]time.Duration, len(kept))
	for i, rr := range kept {
		calib[i] = rr.Calib
	}
	r.latencyMetrics(ref, floor, slowdowns(floor, calib), rounds)
	r.res.set("peak_rss_mb", rss, 0)

	storeDir, rows := r.base, r.w.Rows
	if r.w.Live {
		storeDir, rows = lastDir, rounds[len(rounds)-1].TotalRows
	}
	bytes, err := dirBytes(storeDir)
	if err != nil {
		return err
	}
	r.res.set("store_bytes_per_row", float64(bytes)/float64(rows), 0)

	return r.check(ref, eng, lastDir, rows)
}

// timing is one operation's floor latency and the host slowdown it was
// taken under.
type timing struct{ ms, slow float64 }

// scaled is the nearest-rank p-quantile of the floors over the p-quantile of
// their slowdowns: the same statistic on both sides, because the tail of
// the floors is made of the operations that never got a clean replay and
// the tail of the slowdowns says how unclean the unluckiest replays were.
func scaled(ts []timing, p float64) (raw, slow float64) {
	ms, slows := make([]float64, len(ts)), make([]float64, len(ts))
	for i, t := range ts {
		ms[i], slows[i] = t.ms, t.slow
	}
	sort.Float64s(ms)
	sort.Float64s(slows)
	return percentile(ms, p), percentile(slows, p)
}

// latencyMetrics derives every latency and throughput metric from the
// noise-floored operation list and the per-operation host slowdowns.
func (r *runner) latencyMetrics(ref roundResult, floor []opRec, slow []float64, rounds []roundResult) {
	res := r.res
	res.LabelDigest = fmt.Sprintf("%016x", ref.LabelDigest)
	res.ResultDigest = fmt.Sprintf("%016x", ref.ResultDigest)

	// An open is the create plus the first step of the same session; its
	// slowdown is the two operations' combined.
	byKind := map[opKind][]timing{}
	var opens []timing
	creates := map[int]timing{}
	var totalMs, nominalMs, terminalMs float64
	stepReqs, stepOK := 0, 0
	for i, op := range floor {
		t := timing{float64(op.Nanos) / 1e6, slow[i]}
		byKind[op.Kind] = append(byKind[op.Kind], t)
		totalMs += t.ms
		nominalMs += t.ms / t.slow
		switch op.Kind {
		case opCreate:
			creates[op.Session] = t
		case opFirst:
			c := creates[op.Session]
			ms := c.ms + t.ms
			opens = append(opens, timing{ms, ms / (c.ms/c.slow + t.ms/t.slow)})
		case opTerminal:
			terminalMs += t.ms
		}
		if op.Kind == opFirst || op.Kind == opStep || op.Kind == opTerminal {
			stepReqs++
			if !op.Failed && t.ms <= sloMillis {
				stepOK++
			}
		}
	}
	steps := byKind[opStep]
	if !r.opts.Quick {
		if err := checkTail("step_p95_ms", len(steps), 0.95); err != nil {
			res.problem("%v", err)
		}
	}
	quantile := func(name string, ts []timing, p float64) {
		raw, slow := scaled(ts, p)
		res.setScaled(name, raw, slow, len(ts))
	}
	quantile("open_p50_ms", opens, 0.5)
	quantile("step_p50_ms", steps, 0.5)
	quantile("step_p95_ms", steps, 0.95)
	quantile("terminal_p50_ms", byKind[opTerminal], 0.5)
	if appends := byKind[opAppend]; len(appends) > 0 {
		quantile("append_p50_ms", appends, 0.5)
	}
	perS := float64(len(steps)) / (totalMs / 1e3)
	res.setScaled("steps_per_s", perS, nominalMs/totalMs, len(floor))
	res.set("slo_ok_frac", float64(stepOK)/float64(stepReqs), stepReqs)
	res.TerminalShare = terminalMs / totalMs

	floorP50, _ := scaled(steps, 0.5)
	var fracs []float64
	for _, rr := range rounds {
		raw := percentile(millisOf(rr.Ops, opStep), 0.5)
		d := roundDiag{RawStepP50Ms: raw, CalibMs: medianMs(rr.Calib), StealTicks: rr.Steal,
			NoiseFrac: raw/floorP50 - 1, WallS: rr.Wall.Seconds(), Kept: reproduces(ref, rr)}
		res.Rounds = append(res.Rounds, d)
		fracs = append(fracs, d.NoiseFrac)
	}
	res.NoiseFrac = median(fracs)
}

// check is the correctness gate. The HTTP rounds already reproduced the
// engine-level reference's digests; here the reference's final models must
// classify the benchmark's own copy of the rows into exactly the sets
// /result returned, and a live store must give every acknowledged row back
// after a reopen.
func (r *runner) check(ref roundResult, eng *engineTarget, lastLiveDir string, totalRows int) error {
	t0 := time.Now()
	defer func() { r.res.CheckS = time.Since(t0).Seconds() }()
	r.res.Attempted += len(r.plan.Sessions)
	f1, bad, err := verifyResults(r.plan, r.src, ref, eng)
	if err != nil {
		return err
	}
	if bad > 0 {
		r.res.Failed += bad
		r.res.problem("%d /result sets differ from the brute-force reference", bad)
	}
	r.res.set("result_f1", f1, len(r.plan.Sessions))
	if r.w.Live {
		r.res.Attempted++
		reopen, err := verifyReopen(lastLiveDir, r.src, totalRows)
		if err != nil {
			r.res.Failed++
			r.res.problem("reopen: %v", err)
		}
		r.res.ReopenMs = reopen.Seconds() * 1e3
	}
	return nil
}

// writeResult stores the result file next to the other runs' files.
func writeResult(outDir string, res *runResult) error {
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	trace := 0
	if res.Trace {
		trace = 1
	}
	name := fmt.Sprintf("%s.seed%d.trace%d.%d.json", res.Workload, res.Seed, trace, time.Now().UnixNano())
	return os.WriteFile(filepath.Join(outDir, name), append(data, '\n'), 0o644)
}
