package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func ops(kind opKind, nanos ...int64) []opRec {
	out := make([]opRec, len(nanos))
	for i, n := range nanos {
		out[i] = opRec{Kind: kind, Nanos: n}
	}
	return out
}

func TestNoiseFloorKeepsEachOperationsFastestReplay(t *testing.T) {
	ref := roundResult{Ops: ops(opStep, 9, 9, 9), LabelDigest: 1, ResultDigest: 2}
	rounds := []roundResult{
		{Ops: ops(opStep, 30, 10, 50), LabelDigest: 1, ResultDigest: 2},
		{Ops: ops(opStep, 20, 40, 15), LabelDigest: 1, ResultDigest: 2},
		{Ops: ops(opStep, 25, 12, 60), LabelDigest: 1, ResultDigest: 2},
	}
	floor, attempted, failed, kept := noiseFloor(ref, rounds)
	if attempted != 9 || failed != 0 || len(kept) != 3 {
		t.Fatalf("attempted=%d failed=%d kept=%d, want 9 0 3", attempted, failed, len(kept))
	}
	for i, want := range []int64{20, 10, 15} {
		if floor[i].Nanos != want {
			t.Errorf("floor[%d] = %d, want %d (the minimum over rounds, not the reference)", i, floor[i].Nanos, want)
		}
	}
}

func TestNoiseFloorDropsRoundsThatDoNotReplayTheReference(t *testing.T) {
	ref := roundResult{Ops: ops(opStep, 9, 9), LabelDigest: 1, ResultDigest: 2}
	wrongKind := ops(opStep, 1, 1)
	wrongKind[1].Kind = opTerminal
	failedOp := ops(opStep, 5, 6)
	failedOp[0].Failed = true
	rounds := []roundResult{
		{Ops: ops(opStep, 1, 1), LabelDigest: 7, ResultDigest: 2}, // label digest differs
		{Ops: ops(opStep, 1, 1), LabelDigest: 1, ResultDigest: 7}, // result digest differs
		{Ops: ops(opStep, 1), LabelDigest: 1, ResultDigest: 2},    // shorter
		{Ops: wrongKind, LabelDigest: 1, ResultDigest: 2},         // other shape
		{Ops: failedOp, LabelDigest: 1, ResultDigest: 2},          // kept, one failed op
	}
	floor, attempted, failed, kept := noiseFloor(ref, rounds)
	if attempted != 10 || len(kept) != 1 {
		t.Fatalf("attempted=%d kept=%d, want 10 1", attempted, len(kept))
	}
	if failed != 4*2+1 {
		t.Errorf("failed = %d, want 9: every operation of a dropped round, plus the failed one", failed)
	}
	if floor[0].Nanos != 5 || !floor[0].Failed || floor[1].Nanos != 6 || floor[1].Failed {
		t.Errorf("floor = %+v: dropped rounds must not contribute timings", floor)
	}
}

// TestSlowdownsPutTheKernelThroughTheOperationsProcedure: the slowdown of
// an operation is the fastest stand-in of its own length over the rounds.
func TestSlowdownsPutTheKernelThroughTheOperationsProcedure(t *testing.T) {
	nominal := time.Duration(calibNominalMs * 1e6)
	flat := func(factor float64, n int) []time.Duration {
		out := make([]time.Duration, n)
		for i := range out {
			out[i] = time.Duration(factor * float64(nominal))
		}
		return out
	}
	short, long := int64(nominal), 4*int64(nominal)
	floor := ops(opStep, short, short, long, short, short, short)
	// Round 0 ran 2x slow throughout; round 1 was clean except for one
	// sample in the long operation's window.
	spiked := flat(1, 6)
	spiked[2] = 5 * nominal
	got := slowdowns(floor, [][]time.Duration{flat(2, 6), spiked})
	want := []float64{1, 1, 2, 1, 1, 1}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Errorf("slowdown[%d] = %v, want %v (all: %v)", i, got[i], want[i], got)
		}
	}
	if got := slowdowns(floor, nil); got[0] != 1 || got[2] != 1 {
		t.Errorf("without samples the slowdown must be 1, got %v", got)
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	sorted := make([]float64, 200)
	for i := range sorted {
		sorted[i] = float64(i + 1)
	}
	if got := percentile(sorted, 0.95); got != 190 {
		t.Errorf("p95 of 1..200 = %v, want 190 (nearest rank)", got)
	}
	if got := percentile(sorted, 0.5); got != 100 {
		t.Errorf("p50 of 1..200 = %v, want 100", got)
	}
	if b := beyond(200, 0.95); b != 10 {
		t.Errorf("beyond(200, p95) = %d, want 10", b)
	}
	if err := checkTail("step_p95_ms", 200, 0.95); err != nil {
		t.Errorf("200 samples support p95: %v", err)
	}
	if err := checkTail("step_p95_ms", 199, 0.95); err == nil {
		t.Error("199 samples leave 9 beyond p95 and must be refused")
	}
	if err := checkTail("p99", 222, 0.99); err == nil {
		t.Error("222 samples cannot support p99")
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	vals := []float64{7, 1, 10, 3, 5, 2, 9, 4, 8, 6}
	if got := spreadOf(vals); got < 0.9999 || got > 1.0001 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	// statistics.quantiles([10, 11, 12, 14, 20], n=4) == [10.5, 12.0, 17.0]
	if got, want := spreadOf([]float64{10, 11, 12, 14, 20}), 6.5/12; got < want-1e-9 || got > want+1e-9 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if got := spreadOf([]float64{3}); got != 0 {
		t.Errorf("one value has no spread, got %v", got)
	}
}

func TestVerdictBounds(t *testing.T) {
	lower := metricDef{"step_p50_ms", "ms", "lower", 0.10}
	higher := metricDef{"steps_per_s", "1/s", "higher", 0.10}
	for _, c := range []struct {
		def              metricDef
		base, cand, sprd float64
		want             string
	}{
		{lower, 10, 10.9, 0.02, "same"},
		{lower, 10, 11.1, 0.02, "worse"},
		{lower, 10, 8.9, 0.02, "better"},
		{lower, 10, 11.1, 0.12, "worse"},
		{lower, 10, 10.0, 0.12, "unresolved"},
		{higher, 100, 89, 0.02, "worse"},
		{higher, 100, 111, 0.02, "better"},
		{higher, 100, 95, 0.02, "same"},
	} {
		if _, got := verdict(c.def, c.base, c.cand, c.sprd); got != c.want {
			t.Errorf("%s %v -> %v spread %v: %s, want %s", c.def.Name, c.base, c.cand, c.sprd, got, c.want)
		}
	}
}

func writeResultFile(t *testing.T, dir, name string, r runResult) {
	t.Helper()
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCompareMediansAndHostCheck(t *testing.T) {
	host := hostRecord{NProc: 2, CPUModel: "cpu A"}
	mk := func(step float64, h hostRecord) runResult {
		return runResult{Workload: "explore-cold", Host: h, Metrics: map[string]metric{
			"step_p50_ms": {Value: step, Unit: "ms"},
		}}
	}
	base, slow, other := t.TempDir(), t.TempDir(), t.TempDir()
	for i, v := range []float64{10.0, 10.1, 9.9} {
		writeResultFile(t, base, string(rune('a'+i))+".json", mk(v, host))
		writeResultFile(t, slow, string(rune('a'+i))+".json", mk(v*1.4, host))
	}
	writeResultFile(t, other, "a.json", mk(10, hostRecord{NProc: 8, CPUModel: "cpu B"}))

	var out bytes.Buffer
	worse, err := compareResults(&out, base, base)
	if err != nil || worse {
		t.Fatalf("a set compared with itself: worse=%v err=%v\n%s", worse, err, out.String())
	}
	if !strings.Contains(out.String(), "same") {
		t.Errorf("expected a 'same' row:\n%s", out.String())
	}
	out.Reset()
	worse, err = compareResults(&out, base, slow)
	if err != nil || !worse {
		t.Fatalf("a 40%% slower set must be worse: worse=%v err=%v\n%s", worse, err, out.String())
	}
	if _, err := compareResults(&out, base, other); err == nil {
		t.Error("results from another CPU model / core count must be refused")
	}
}

// TestQuickSmoke runs every workload end to end at toy size, untraced and
// traced, and checks that every declared metric comes out with its unit,
// that nothing failed, and that a seed means one exploration on every rung.
func TestQuickSmoke(t *testing.T) {
	out := t.TempDir()
	var mu sync.Mutex
	labels := map[string]string{}
	// The workloads run side by side: this is a smoke test, not a
	// measurement. The group returns when all of them have.
	t.Run("workloads", func(t *testing.T) {
		for _, w := range workloads(true) {
			t.Run(w.Name, func(t *testing.T) {
				t.Parallel()
				var digests [2]string
				var label string
				for i, trace := range []bool{false, true} {
					res, err := run(runOptions{Workload: w.Name, Seed: 7, Trace: trace, Quick: true, OutDir: out})
					if err != nil {
						t.Fatalf("trace=%v: %v", trace, err)
					}
					if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
						t.Errorf("trace=%v: correct=%v attempted=%d failed=%d problems=%v",
							trace, res.Correct, res.Attempted, res.Failed, res.Problems)
					}
					defs := endToEnd
					if trace {
						defs = perLayer
					}
					for _, d := range defs {
						m, ok := res.Metrics[d.Name]
						if !ok || m.Unit != d.Unit {
							t.Errorf("trace=%v: metric %s = %+v (present=%v), want unit %q", trace, d.Name, m, ok, d.Unit)
						}
					}
					if _, ok := res.Metrics["append_p50_ms"]; ok != (w.Live && !trace) {
						t.Errorf("trace=%v: append_p50_ms present=%v", trace, ok)
					}
					if m := res.Metrics["result_f1"]; m.Value <= 0 || m.Value > 1 {
						t.Errorf("trace=%v: result_f1 = %v", trace, m.Value)
					}
					if !trace && len(res.Rounds) != w.MinRounds {
						t.Errorf("%d round diagnostics, want %d", len(res.Rounds), w.MinRounds)
					}
					digests[i], label = res.LabelDigest+res.ResultDigest, res.LabelDigest
				}
				if digests[0] != digests[1] {
					t.Error("the traced and the untraced run of one seed explored differently")
				}
				if _, err := os.Stat(filepath.Join(out, w.Name+".trace.jsonl")); err != nil {
					t.Errorf("no span file: %v", err)
				}
				mu.Lock()
				labels[w.Name] = label
				mu.Unlock()
			})
		}
	})
	if labels["explore-hot"] != labels["explore-cold"] {
		t.Error("explore-hot must replay explore-cold's session list")
	}
}

// TestBenchmarkJSONMatchesTheTables keeps the contract file and the
// program's metric tables from drifting apart.
func TestBenchmarkJSONMatchesTheTables(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	var doc struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []entry                      `json:"end_to_end"`
		PerLayer  []entry                      `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	ws := workloads(false)
	if len(doc.Workloads) != len(ws) {
		t.Fatalf("%d workloads listed, program has %d", len(doc.Workloads), len(ws))
	}
	for i, w := range ws {
		if doc.Workloads[i].Name != w.Name || doc.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: %+v, program has %q / %q", i, doc.Workloads[i], w.Name, w.Why)
		}
	}
	check := func(kind string, got []entry, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics listed, program has %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			if g := got[i]; g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better || g.Bound != d.Bound {
				t.Errorf("%s[%d]: %+v, program has %+v", kind, i, g, d)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
}
