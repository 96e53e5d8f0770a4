package main

import (
	"fmt"
	"net/http"
	"path/filepath"
	"runtime"
	"sync/atomic"

	"github.com/uei-db/uei/internal/obs"
	"github.com/uei-db/uei/internal/stream"
)

// handlerTimer is rung A's timing middleware around Manager.Handler(). It
// is installed for the whole traced run and switched off for the untraced
// comparison rounds.
type handlerTimer struct {
	rec *recorder
	on  atomic.Bool
}

func (h *handlerTimer) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if !h.on.Load() {
			next.ServeHTTP(w, req)
			return
		}
		id := h.rec.begin()
		next.ServeHTTP(w, req)
		h.rec.end(id, "server.handler")
	})
}

// tally accumulates the public counters read at round boundaries.
type tally struct {
	stepReqs                int
	ioBytes, ioChunks       int64
	hits, misses, evictions int64
	residentBytes           int64
	allocBytes              uint64
	gcCycles                uint32
	scored, skipped, swaps  int64
	scoreSec, loadSec       float64
	scoreCount, loadCount   int64
	respBytes               int64
}

// observe snapshots a service's counters and returns the function that adds
// the round's deltas to the tally.
func (ty *tally) observe(s *service) func() {
	idx := s.m.Index()
	snap := func() (b, c int64, reg obs.Snapshot, ms runtime.MemStats) {
		b, c = idx.IOStats()
		reg = s.m.Registry().Snapshot()
		runtime.ReadMemStats(&ms)
		return
	}
	b0, c0, reg0, ms0 := snap()
	var h0, m0, e0 int64
	if bc := idx.BlockCache(); bc != nil {
		st := bc.Stats()
		h0, m0, e0 = st.Hits, st.Misses, st.Evictions
	}
	return func() {
		b1, c1, reg1, ms1 := snap()
		ty.ioBytes += b1 - b0
		ty.ioChunks += c1 - c0
		ty.allocBytes += ms1.TotalAlloc - ms0.TotalAlloc
		ty.gcCycles += ms1.NumGC - ms0.NumGC
		ty.scored += reg1.Counters["uei_score_scored_cells_total"] - reg0.Counters["uei_score_scored_cells_total"]
		ty.skipped += reg1.Counters["uei_score_skipped_cells_total"] - reg0.Counters["uei_score_skipped_cells_total"]
		ty.swaps += reg1.Counters["uei_region_swaps_total"] - reg0.Counters["uei_region_swaps_total"]
		score := obs.PhaseHistName(obs.PhaseScore)
		load := obs.PhaseHistName(obs.PhaseLoad)
		ty.scoreSec += reg1.Histograms[score].Sum - reg0.Histograms[score].Sum
		ty.scoreCount += reg1.Histograms[score].Count - reg0.Histograms[score].Count
		ty.loadSec += reg1.Histograms[load].Sum - reg0.Histograms[load].Sum
		ty.loadCount += reg1.Histograms[load].Count - reg0.Histograms[load].Count
		if bc := idx.BlockCache(); bc != nil {
			st := bc.Stats()
			ty.hits += st.Hits - h0
			ty.misses += st.Misses - m0
			ty.evictions += st.Evictions - e0
			ty.residentBytes = st.ResidentBytes
		}
	}
}

// traced is the -trace run: one extra replay per rung of the ladder, each
// verified against the engine-level reference, with spans recorded from the
// benchmark's own files, then the isolated layer calls. End-to-end metrics
// never come from here.
func (r *runner) traced() error {
	if _, err := r.setUp(); err != nil {
		return err
	}
	rec := newRecorder()
	ht := &handlerTimer{rec: rec}
	r.wrap = ht.wrap

	// Rung C: ide sessions over views, spans at the Provider seam.
	rec.rung = "engine"
	ref, eng, svc, err := r.reference(rec)
	if err != nil {
		return err
	}
	stop := func(err error) error {
		if svc != nil {
			if serr := svc.stop(r.ctx); err == nil {
				err = serr
			}
		}
		return err
	}

	// Rung A: over HTTP. Rounds with the middleware off and rounds with
	// spans on alternate, so both see the same host conditions; the
	// difference of their floor step medians is the tracing overhead.
	pairs := 2
	if r.opts.Quick {
		pairs = 1
	}
	var ty tally
	var plain, spanned []roundResult
	var lastDir string
	rec.rung = "client"
	for k := 0; k < pairs; k++ {
		ht.on.Store(false)
		rr, _, err := r.roundsOn(svc, 1, nil, r.overHTTP, nil)
		if err != nil {
			return stop(err)
		}
		plain = append(plain, rr...)
		ht.on.Store(true)
		var client *httpTarget
		rr, dir, err := r.roundsOn(svc, 1, rec, func(s *service) (target, func()) {
			t, done := r.overHTTP(s)
			client = t.(*httpTarget)
			return t, done
		}, ty.observe)
		if err != nil {
			return stop(err)
		}
		spanned = append(spanned, rr...)
		ty.respBytes += client.stepBytes
		lastDir = dir
	}
	ht.on.Store(false)
	segments := 0
	if r.w.Live {
		info, err := stream.Inspect(lastDir)
		if err != nil {
			return stop(err)
		}
		segments = len(info.Manifest.Segments)
	}

	// Rung B: the Manager's methods, no HTTP.
	rec.rung = "inproc"
	inproc, _, err := r.roundsOn(svc, 1, rec, func(s *service) (target, func()) {
		return newManagerTarget(s.m, len(r.plan.Sessions)), func() {}
	}, nil)
	if err = stop(err); err != nil {
		return err
	}

	// Every rung must have replayed the same exploration.
	all := append(append(append([]roundResult{}, plain...), spanned...), inproc...)
	_, attempted, failed, _ := noiseFloor(ref, all)
	r.res.Attempted, r.res.Failed = attempted, failed
	r.res.LabelDigest = fmt.Sprintf("%016x", ref.LabelDigest)
	r.res.ResultDigest = fmt.Sprintf("%016x", ref.ResultDigest)

	plainFloor, _, _, _ := noiseFloor(ref, plain)
	spannedFloor, _, _, _ := noiseFloor(ref, spanned)
	p0 := percentile(millisOf(plainFloor, opStep), 0.5)
	p1 := percentile(millisOf(spannedFloor, opStep), 0.5)
	r.res.set("bench.trace_overhead_frac", p1/p0-1, len(millisOf(plainFloor, opStep)))
	for _, rr := range spanned {
		for _, op := range rr.Ops {
			if op.Kind == opFirst || op.Kind == opStep || op.Kind == opTerminal {
				ty.stepReqs++
			}
		}
	}
	r.spanMetrics(rec, ref, ty, segments)

	// Rung D: isolated calls into each layer.
	if err := r.layerMetrics(layerInputs{cells: eng.loaded, labeled: eng.labeled}); err != nil {
		return err
	}
	if err := r.check(ref, eng, lastDir, spanned[len(spanned)-1].TotalRows); err != nil {
		return err
	}
	return rec.writeJSONL(filepath.Join(r.opts.OutDir, r.w.Name+".trace.jsonl"))
}

// spanMetrics derives the rung A-C metrics from the recorded spans and the
// counters tallied at round boundaries.
func (r *runner) spanMetrics(rec *recorder, ref roundResult, ty tally, segments int) {
	res := r.res
	agg := rec.totals()
	ms := func(t spanTotal) float64 { return float64(t.TotalNs) / 1e6 }
	meanMs := func(name, parent string) (float64, int) {
		t := agg[spanKey{name, parent}]
		if t.Count == 0 {
			return 0, 0
		}
		return ms(t) / float64(t.Count), t.Count
	}
	setMean := func(metric, name, parent string) {
		v, n := meanMs(name, parent)
		res.set(metric, v, n)
	}

	// Rung A.
	steps := agg[spanKey{"client.step", ""}]
	handled := agg[spanKey{"server.handler", "client.step"}]
	setMean("server.handler_ms", "server.handler", "client.step")
	if steps.Count > 0 {
		res.set("server.http_overhead_ms", (ms(steps)-ms(handled))/float64(steps.Count), steps.Count)
	}
	setMean("server.create_ms", "server.handler", "client.create")
	setMean("server.result_ms", "server.handler", "client.result")
	setMean("server.delete_ms", "server.handler", "client.delete")
	n := float64(ty.stepReqs)
	res.set("server.resp_bytes_per_step", float64(ty.respBytes)/n, ty.stepReqs)
	res.set("server.alloc_mb_per_step", float64(ty.allocBytes)/(1<<20)/n, ty.stepReqs)
	res.set("server.gc_cycles_per_1k_steps", float64(ty.gcCycles)*1000/n, ty.stepReqs)
	res.set("chunkstore.chunks_read_per_step", float64(ty.ioChunks)/n, ty.stepReqs)
	res.set("chunkstore.bytes_read_per_step", float64(ty.ioBytes)/n, ty.stepReqs)
	hitRatio := 0.0
	if ty.hits+ty.misses > 0 {
		hitRatio = float64(ty.hits) / float64(ty.hits+ty.misses)
	}
	res.set("blockcache.hit_ratio", hitRatio, int(ty.hits+ty.misses))
	res.set("blockcache.evictions", float64(ty.evictions), 0)
	res.set("blockcache.resident_mb", float64(ty.residentBytes)/(1<<20), 0)
	res.set("core.cells_scored_per_step", float64(ty.scored)/n, ty.stepReqs)
	res.set("core.cells_skipped_per_step", float64(ty.skipped)/n, ty.stepReqs)
	res.set("core.swaps_per_step", float64(ty.swaps)/n, ty.stepReqs)
	res.set("core.score_ms", ty.scoreSec*1e3/float64(ty.scoreCount), int(ty.scoreCount))
	res.set("core.load_ms", ty.loadSec*1e3/float64(ty.loadCount), int(ty.loadCount))
	res.set("stream.segments_at_end", float64(segments), 0)

	// Rung B.
	setMean("server.step_inproc_ms", "inproc.step", "")

	// Rung C: per steady step of the engine-level replay.
	esteps := agg[spanKey{"engine.step", ""}]
	propose := agg[spanKey{"ide.propose", "engine.step"}]
	resolve := agg[spanKey{"ide.resolve", "engine.step"}]
	if esteps.Count > 0 {
		per := float64(esteps.Count) * 1e6
		res.set("ide.propose_ms", float64(propose.TotalNs)/per, esteps.Count)
		res.set("ide.resolve_ms", float64(resolve.TotalNs)/per, esteps.Count)
		res.set("ide.self_ms", float64(propose.SelfNs+resolve.SelfNs)/per, esteps.Count)
	}
	setMean("ide.finish_ms", "ide.finish", "engine.terminal")
	setMean("core.new_view_ms", "core.new_view", "engine.create")
	setMean("core.init_exploration_ms", "core.init_exploration", "ide.propose")
	setMean("core.candidates_ms", "core.candidates", "ide.propose")
	setMean("core.retrieve_ms", "core.retrieve", "ide.finish")
	scanned, returned := 0, 0
	for i, ids := range ref.Results {
		scanned += ref.Visible[i]
		returned += len(ids)
	}
	perRow := 0.0
	if returned > 0 {
		perRow = float64(scanned) / float64(returned)
	}
	res.set("core.rows_scanned_per_result_row", perRow, returned)
}
