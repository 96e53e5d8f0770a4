package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"
)

// This file is the offline trace analyzer behind cmd/uei-trace: it reads
// the JSONL span stream back, rebuilds per-trace span trees from the
// parent references, and renders the uei-trace report — SLO compliance
// and top-N slowest span trees over the traces rooted at a "step" span,
// one line per other root name, and the phase breakdown, shard skew and
// degradation causes over every trace.

// SpanNode is one reconstructed span with its children, ordered by start
// offset.
type SpanNode struct {
	Ev       Event
	Children []*SpanNode
}

// StepRoot is the root span name of a server step request, the unit the
// SLO budget applies to.
const StepRoot = "step"

// StepTrace is one reconstructed trace: a server step when its root span
// is named StepRoot, otherwise some other traced operation (a session
// create, a result retrieval, a CLI run).
type StepTrace struct {
	TraceID string
	Root    *SpanNode
	// Spans counts every span in the trace, root included.
	Spans int
	// Phases sums the durations of budget-attribution phase spans
	// (IsPhaseName), the additive decomposition of the step's wall time.
	Phases map[string]time.Duration
	// Orphans lists span ids whose parent id never appeared in the trace
	// (a bug: some code path failed to End an ancestor).
	Orphans []string
}

// Wall returns the root span duration (0 if the root is missing).
func (st *StepTrace) Wall() time.Duration {
	if st == nil || st.Root == nil {
		return 0
	}
	return time.Duration(st.Root.Ev.DurNS)
}

// PhaseSum returns the summed phase durations.
func (st *StepTrace) PhaseSum() time.Duration {
	var sum time.Duration
	for _, d := range st.Phases {
		sum += d
	}
	return sum
}

// Coverage returns phase-sum / wall in [0,1] (0 when wall is 0): how much
// of the step's wall time the phase decomposition accounts for.
func (st *StepTrace) Coverage() float64 {
	w := st.Wall()
	if w <= 0 {
		return 0
	}
	return float64(st.PhaseSum()) / float64(w)
}

// Analysis is the result of reconstructing a trace stream.
type Analysis struct {
	// Steps holds the traces whose root span is named StepRoot, in
	// trace-id order: what the SLO and slowest-steps sections report.
	Steps []*StepTrace
	// Others holds every other trace (any other root name, or no root at
	// all), in trace-id order.
	Others []*StepTrace
}

// eachTrace visits every reconstructed trace, steps first.
func (a *Analysis) eachTrace(fn func(*StepTrace)) {
	for _, st := range a.Steps {
		fn(st)
	}
	for _, st := range a.Others {
		fn(st)
	}
}

// Orphans returns every orphaned span across all traces as
// "traceID/spanID" strings.
func (a *Analysis) Orphans() []string {
	var out []string
	a.eachTrace(func(st *StepTrace) {
		for _, id := range st.Orphans {
			out = append(out, st.TraceID+"/"+id)
		}
	})
	return out
}

// ReadTrace decodes a JSONL trace stream. Blank lines are skipped; a
// malformed line — one that is not JSON, or a span without its trace and
// span ids — is an error (the stream is machine-written).
func ReadTrace(r io.Reader) ([]Event, error) {
	var events []Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var e Event
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			return nil, fmt.Errorf("obs: trace line %d: %w", lineNo, err)
		}
		if e.TraceID == "" || e.SpanID == "" {
			return nil, fmt.Errorf("obs: trace line %d: span without trace_id and span_id", lineNo)
		}
		events = append(events, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: read trace: %w", err)
	}
	return events, nil
}

// Analyze reconstructs span trees from a trace stream.
func Analyze(events []Event) *Analysis {
	a := &Analysis{}
	byTrace := map[string][]Event{}
	var order []string
	for _, e := range events {
		if _, ok := byTrace[e.TraceID]; !ok {
			order = append(order, e.TraceID)
		}
		byTrace[e.TraceID] = append(byTrace[e.TraceID], e)
	}
	sort.Strings(order)
	for _, id := range order {
		st := buildStep(id, byTrace[id])
		if st.Root != nil && st.Root.Ev.Phase == StepRoot {
			a.Steps = append(a.Steps, st)
		} else {
			a.Others = append(a.Others, st)
		}
	}
	return a
}

// buildStep links one trace's events into a tree by parent reference.
func buildStep(traceID string, evs []Event) *StepTrace {
	st := &StepTrace{TraceID: traceID, Phases: map[string]time.Duration{}}
	nodes := map[string]*SpanNode{}
	for _, e := range evs {
		nodes[e.SpanID] = &SpanNode{Ev: e}
		st.Spans++
		if IsPhaseName(e.Phase) {
			st.Phases[e.Phase] += time.Duration(e.DurNS)
		}
	}
	var orphans []string
	for _, e := range evs {
		n := nodes[e.SpanID]
		if e.ParentID == "" {
			if st.Root == nil {
				st.Root = n
			}
			continue
		}
		if p, ok := nodes[e.ParentID]; ok {
			p.Children = append(p.Children, n)
		} else {
			orphans = append(orphans, e.SpanID)
		}
	}
	for _, n := range nodes {
		sort.Slice(n.Children, func(i, j int) bool {
			a, b := n.Children[i].Ev, n.Children[j].Ev
			if a.StartNS != b.StartNS {
				return a.StartNS < b.StartNS
			}
			return spanSeq(a.SpanID) < spanSeq(b.SpanID)
		})
	}
	sort.Strings(orphans)
	st.Orphans = orphans
	return st
}

// spanSeq parses a span id's numeric sequence for stable ordering.
func spanSeq(id string) uint64 {
	n, _ := strconv.ParseUint(id, 10, 64)
	return n
}

// ReportOptions controls WriteReport.
type ReportOptions struct {
	// TopN limits the slowest-steps span-tree section (default 3).
	TopN int
	// Budget is the SLO step budget (default DefaultSLOBudget).
	Budget time.Duration
}

// WriteReport renders the full uei-trace report: SLO compliance, the
// non-step roots, phase breakdown, slowest steps with span trees, shard
// skew, and degradation causes.
func (a *Analysis) WriteReport(w io.Writer, opts ReportOptions) error {
	if opts.TopN <= 0 {
		opts.TopN = 3
	}
	if opts.Budget <= 0 {
		opts.Budget = DefaultSLOBudget
	}
	bw := bufio.NewWriter(w)
	a.writeSLO(bw, opts.Budget)
	a.writeOthers(bw)
	a.writePhases(bw)
	a.writeScoreSkip(bw)
	a.writeSlowest(bw, opts.TopN)
	a.writeShards(bw)
	a.writeDegradation(bw)
	if orphans := a.Orphans(); len(orphans) > 0 {
		fmt.Fprintf(bw, "\nORPHANED SPANS (%d)\n", len(orphans))
		for _, id := range orphans {
			fmt.Fprintf(bw, "  %s\n", id)
		}
	}
	return bw.Flush()
}

// writeSLO prints the compliance section.
func (a *Analysis) writeSLO(w io.Writer, budget time.Duration) {
	fmt.Fprintf(w, "SLO COMPLIANCE (budget %s)\n", budget)
	n := len(a.Steps)
	if n == 0 {
		fmt.Fprintf(w, "  no traced steps\n")
		return
	}
	var walls Samples
	for _, st := range a.Steps {
		walls.Observe(st.Wall())
	}
	fmt.Fprintf(w, "  steps      %d\n", n)
	fmt.Fprintf(w, "  violations %d (%.1f%% compliant)\n",
		n-walls.Within(budget), 100*walls.FractionWithin(budget))
	fmt.Fprintf(w, "  p50 %s  p95 %s  p99 %s\n",
		fmtDur(walls.Quantile(0.50)), fmtDur(walls.Quantile(0.95)), fmtDur(walls.Quantile(0.99)))
}

// writeOthers prints one line per root name other than StepRoot: how many
// traces it roots and their wall times. These traces have no per-request
// budget, so they stay out of the SLO section.
func (a *Analysis) writeOthers(w io.Writer) {
	if len(a.Others) == 0 {
		return
	}
	type stat struct {
		walls Samples
		total time.Duration
	}
	stats := map[string]*stat{}
	for _, st := range a.Others {
		name := "(no root)"
		if st.Root != nil {
			name = st.Root.Ev.Phase
		}
		s := stats[name]
		if s == nil {
			s = &stat{}
			stats[name] = s
		}
		s.walls.Observe(st.Wall())
		s.total += st.Wall()
	}
	fmt.Fprintf(w, "\nOTHER ROOTS\n")
	for _, name := range sortedKeys(stats) {
		s := stats[name]
		fmt.Fprintf(w, "  %-10s traces %-4d total %10s  p50 %10s  p95 %10s\n",
			name, s.walls.Count(), fmtDur(s.total), fmtDur(s.walls.Quantile(0.50)), fmtDur(s.walls.Quantile(0.95)))
	}
}

// writePhases prints the aggregate per-phase budget attribution over
// every trace.
func (a *Analysis) writePhases(w io.Writer) {
	totals := map[string]time.Duration{}
	var wall time.Duration
	a.eachTrace(func(st *StepTrace) {
		wall += st.Wall()
		for p, d := range st.Phases {
			totals[p] += d
		}
	})
	if len(totals) == 0 {
		return
	}
	fmt.Fprintf(w, "\nPHASE BREAKDOWN (all traces, wall %s)\n", fmtDur(wall))
	for _, p := range sortedKeys(totals) {
		pct := 0.0
		if wall > 0 {
			pct = 100 * float64(totals[p]) / float64(wall)
		}
		fmt.Fprintf(w, "  %-10s %10s  %5.1f%%\n", p, fmtDur(totals[p]), pct)
	}
}

// writeScoreSkip prints how much scoring work the resumable k-NN scan
// avoided: from the score spans' points/skipped attributes, the symbolic
// points carried over unchanged, and from the select spans'
// carried/scanned/changed attributes, the pool rows that resumed their scan
// instead of restarting it — and, from the classify spans' rows/settled
// attributes, the rows the terminal step decided without selecting their
// neighbours. Traces with none of the three render nothing.
func (a *Analysis) writeScoreSkip(w io.Writer) {
	var spans, selects int
	var points, skipped, carried, scanned, changed, rows, settled float64
	a.eachSpan(func(e Event) {
		switch e.Phase {
		case PhaseScore:
			if s, ok := e.Attrs["skipped"]; ok {
				spans++
				points += e.Attrs["points"]
				skipped += s
			}
		case PhaseSelect:
			if c, ok := e.Attrs["carried"]; ok {
				selects++
				carried += c
				scanned += e.Attrs["scanned"]
				changed += e.Attrs["changed"]
			}
		case SpanClassify:
			rows += e.Attrs["rows"]
			settled += e.Attrs["settled"]
		}
	})
	if skipped == 0 && carried == 0 && settled == 0 {
		return
	}
	pct := func(part, whole float64) float64 {
		if whole == 0 {
			return 0
		}
		return 100 * part / whole
	}
	fmt.Fprintf(w, "\nSCORE SKIPPING\n")
	if skipped > 0 {
		fmt.Fprintf(w, "  score passes %d\n", spans)
		fmt.Fprintf(w, "  cells skipped %.0f of %.0f (%.1f%%) by exact incremental rescoring\n",
			skipped, points, pct(skipped, points))
	}
	if carried > 0 {
		fmt.Fprintf(w, "  selections %d\n", selects)
		fmt.Fprintf(w, "  pool rows carried %.0f of %.0f (%.1f%%) by resuming their k-NN scan, %.0f changed by a new label\n",
			carried, carried+scanned, pct(carried, carried+scanned), changed)
	}
	if settled > 0 {
		fmt.Fprintf(w, "  terminal rows settled without selection: %.0f of %.0f (%.1f%%)\n",
			settled, rows, pct(settled, rows))
	}
}

// writeSlowest prints the top-N slowest steps with their span trees.
func (a *Analysis) writeSlowest(w io.Writer, topN int) {
	if len(a.Steps) == 0 {
		return
	}
	steps := append([]*StepTrace(nil), a.Steps...)
	sort.Slice(steps, func(i, j int) bool {
		if steps[i].Wall() != steps[j].Wall() {
			return steps[i].Wall() > steps[j].Wall()
		}
		return steps[i].TraceID < steps[j].TraceID
	})
	if topN > len(steps) {
		topN = len(steps)
	}
	fmt.Fprintf(w, "\nSLOWEST STEPS (top %d)\n", topN)
	for _, st := range steps[:topN] {
		fmt.Fprintf(w, "  %s  wall %s  phase-coverage %.1f%%\n",
			st.TraceID, fmtDur(st.Wall()), 100*st.Coverage())
		if st.Root != nil {
			writeTree(w, st.Root, "    ")
		}
	}
}

// writeTree prints one span subtree, indented.
func writeTree(w io.Writer, n *SpanNode, indent string) {
	line := indent + n.Ev.Phase
	if n.Ev.Outcome != "" {
		line += " [" + n.Ev.Outcome + "]"
	}
	fmt.Fprintf(w, "%-40s %10s\n", line, fmtDur(time.Duration(n.Ev.DurNS)))
	for _, c := range n.Children {
		writeTree(w, c, indent+"  ")
	}
}

// writeShards prints per-shard load/latency skew from shard_* spans.
func (a *Analysis) writeShards(w io.Writer) {
	type stat struct {
		count    int
		total    time.Duration
		degraded int
	}
	stats := map[string]*stat{}
	a.eachSpan(func(e Event) {
		if !strings.HasPrefix(e.Phase, "shard_") {
			return
		}
		id, ok := e.Attrs["shard"]
		if !ok {
			return
		}
		key := strconv.Itoa(int(id))
		s := stats[key]
		if s == nil {
			s = &stat{}
			stats[key] = s
		}
		s.count++
		s.total += time.Duration(e.DurNS)
		if e.Outcome != "" && e.Outcome != "ok" {
			s.degraded++
		}
	})
	if len(stats) == 0 {
		return
	}
	fmt.Fprintf(w, "\nSHARD SKEW\n")
	keys := sortedKeys(stats)
	sort.Slice(keys, func(i, j int) bool { return spanSeq(keys[i]) < spanSeq(keys[j]) })
	for _, k := range keys {
		s := stats[k]
		mean := time.Duration(0)
		if s.count > 0 {
			mean = s.total / time.Duration(s.count)
		}
		fmt.Fprintf(w, "  shard %-3s ops %-4d total %10s  mean %10s  degraded %d\n",
			k, s.count, fmtDur(s.total), fmtDur(mean), s.degraded)
	}
}

// writeDegradation prints non-ok outcome counts per span name.
func (a *Analysis) writeDegradation(w io.Writer) {
	causes := map[string]int{}
	a.eachSpan(func(e Event) {
		if e.Outcome == "" || e.Outcome == "ok" || e.Outcome == "hit" || e.Outcome == "miss" {
			return
		}
		causes[e.Phase+"/"+e.Outcome]++
	})
	if len(causes) == 0 {
		return
	}
	fmt.Fprintf(w, "\nDEGRADATION CAUSES\n")
	for _, k := range sortedKeys(causes) {
		fmt.Fprintf(w, "  %-30s %d\n", k, causes[k])
	}
}

// eachSpan visits every span event across all traces.
func (a *Analysis) eachSpan(fn func(Event)) {
	a.eachTrace(func(st *StepTrace) {
		var walk func(n *SpanNode)
		walk = func(n *SpanNode) {
			fn(n.Ev)
			for _, c := range n.Children {
				walk(c)
			}
		}
		if st.Root != nil {
			walk(st.Root)
		}
	})
}

// fmtDur renders a duration with millisecond precision for report
// alignment.
func fmtDur(d time.Duration) string {
	return fmtSec(d.Seconds())
}

// fmtSec renders seconds as fixed-point milliseconds.
func fmtSec(s float64) string {
	return strconv.FormatFloat(s*1000, 'f', 3, 64) + "ms"
}
