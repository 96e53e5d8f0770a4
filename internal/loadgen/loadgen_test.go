package loadgen

import (
	"bytes"
	"context"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/uei-db/uei/internal/core"
	"github.com/uei-db/uei/internal/dataset"
	"github.com/uei-db/uei/internal/obs"
	"github.com/uei-db/uei/internal/server"
)

// startServer boots a real server.Manager over a small synthetic store
// and serves it on an httptest listener.
func startServer(t testing.TB, mut func(*server.Config)) *httptest.Server {
	t.Helper()
	ds, err := dataset.GenerateSky(dataset.SkyConfig{N: 1200, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := core.Build(dir, ds, core.BuildOptions{TargetChunkBytes: 4096}); err != nil {
		t.Fatal(err)
	}
	cfg := server.Config{
		StoreDir:              dir,
		TotalBudgetBytes:      8 << 20,
		MinSessionBudgetBytes: 32 << 10,
		MaxSessions:           16,
		Seed:                  5,
	}
	if mut != nil {
		mut(&cfg)
	}
	m, err := server.NewManager(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = m.Close(context.Background()) })
	srv := httptest.NewServer(m.Handler())
	t.Cleanup(srv.Close)
	return srv
}

// smokeProfile is a fast, deterministic profile for tests: no think
// time, no ramp, pinned sample size.
func smokeProfile(users int) Profile {
	p := Profile{
		Name:  "test-smoke",
		Seed:  11,
		Users: users,
		Regions: []Region{
			{Name: "dense", Oracle: server.OracleSpec{Selectivity: 0.05}},
			{Name: "mid", Oracle: server.OracleSpec{Selectivity: 0.03}},
		},
		RegionZipfS:     1.4,
		MinLabels:       4,
		MaxLabels:       8,
		SampleSize:      150,
		SessionsPerUser: 2,
		AbandonProb:     0.2,
	}
	return p
}

func TestThinkSpecDeterministic(t *testing.T) {
	for _, dist := range []string{"constant", "exponential", "lognormal"} {
		spec := ThinkSpec{Dist: dist, MeanMs: 100, SigmaMs: 50}
		if err := spec.validate(); err != nil {
			t.Fatal(err)
		}
		draw := func() []time.Duration {
			rng := rand.New(rand.NewSource(7))
			out := make([]time.Duration, 20)
			for i := range out {
				out[i] = spec.Sample(rng)
			}
			return out
		}
		a, b := draw(), draw()
		var mean time.Duration
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: draw %d differs: %v vs %v", dist, i, a[i], b[i])
			}
			if a[i] < 0 {
				t.Fatalf("%s: negative think time %v", dist, a[i])
			}
			mean += a[i]
		}
		mean /= time.Duration(len(a))
		if mean <= 0 {
			t.Fatalf("%s: zero mean think time", dist)
		}
	}
	if err := (ThinkSpec{Dist: "weibull"}).validate(); err == nil {
		t.Fatal("unknown dist must be rejected")
	}
	if err := (ThinkSpec{Dist: "lognormal"}).validate(); err == nil {
		t.Fatal("lognormal without mean must be rejected")
	}
}

func TestProfileParse(t *testing.T) {
	raw := []byte(`{
		"name": "custom",
		"seed": 3,
		"users": 10,
		"ramp_up": "250ms",
		"write_interval": 50,
		"regions": [{"name": "a", "oracle": {"selectivity": 0.05}}],
		"max_labels": 6,
		"think": {"dist": "lognormal", "mean_ms": 100, "sigma_ms": 60}
	}`)
	p, err := Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	if time.Duration(p.RampUp) != 250*time.Millisecond {
		t.Errorf("ramp_up = %v", time.Duration(p.RampUp))
	}
	if time.Duration(p.WriteInterval) != 50*time.Millisecond {
		t.Errorf("numeric write_interval = %v, want 50ms", time.Duration(p.WriteInterval))
	}
	if p.MinLabels != 6 || p.SLOMillis != 500 || p.SessionsPerUser != 1 {
		t.Errorf("defaults not applied: %+v", p)
	}
	if p.Regions[0].Oracle.Seed == 0 {
		t.Error("unseeded region did not get a derived oracle seed")
	}
	if _, err := Parse([]byte(`{"name":"x","seed":1,"users":0,"max_labels":5,"regions":[{"name":"a","oracle":{}}]}`)); err == nil {
		t.Error("users=0 must be rejected")
	}
}

func TestBuiltinProfilesValid(t *testing.T) {
	names := BuiltinNames()
	if len(names) < 5 {
		t.Fatalf("builtin library has %d profiles, want >= 5", len(names))
	}
	for _, n := range names {
		p, ok := Builtin(n)
		if !ok {
			t.Fatalf("Builtin(%q) missing", n)
		}
		if err := p.Validate(); err != nil {
			t.Errorf("builtin %q invalid: %v", n, err)
		}
		for i, r := range p.Regions {
			if r.Oracle.Seed == 0 {
				t.Errorf("builtin %q region %d has no oracle seed after defaults", n, i)
			}
		}
	}
}

// TestLoadgenSmoke drives a small fleet against a real manager and
// requires a clean run: zero errors, every planned session accounted
// for, latency and compliance populated.
func TestLoadgenSmoke(t *testing.T) {
	srv := startServer(t, nil)
	res, err := Run(srv.URL, smokeProfile(8), Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Summary
	if s.TotalErrors() != 0 {
		t.Fatalf("errors: %d (records: %+v)", s.TotalErrors(), failedRecords(res.Records))
	}
	if s.Sessions.Planned != 16 || s.Sessions.Completed+s.Sessions.Abandoned != 16 {
		t.Fatalf("sessions: %+v, want 16 planned, all completed or abandoned", s.Sessions)
	}
	if s.Steps.Count == 0 || s.Steps.P95Ms <= 0 {
		t.Fatalf("no step latency recorded: %+v", s.Steps)
	}
	if s.Steps.Compliance <= 0 || s.Steps.Compliance > 1 {
		t.Fatalf("compliance %v outside (0,1]", s.Steps.Compliance)
	}
	if len(s.Regions) < 2 {
		t.Fatalf("zipfian picker never chose a second region: %v", s.Regions)
	}
	var human bytes.Buffer
	s.WriteHuman(&human)
	for _, want := range []string{"loadgen profile=test-smoke", "slo budget_ms=500", "workflow digest="} {
		if !strings.Contains(human.String(), want) {
			t.Errorf("human report missing %q:\n%s", want, human.String())
		}
	}
}

func failedRecords(recs []SessionRecord) []SessionRecord {
	var out []SessionRecord
	for _, r := range recs {
		if r.Error != "" {
			out = append(out, r)
		}
	}
	return out
}

// TestSeededReproducibility is the acceptance check: two same-seed runs
// produce identical session workflows and label sequences.
func TestSeededReproducibility(t *testing.T) {
	srv := startServer(t, nil)
	run := func() *Result {
		res, err := Run(srv.URL, smokeProfile(6), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Summary.TotalErrors() != 0 {
			t.Fatalf("errors in run: %+v", failedRecords(res.Records))
		}
		return res
	}
	a, b := run(), run()
	if a.Summary.WorkflowDigest != b.Summary.WorkflowDigest {
		t.Fatalf("workflow digests differ: %s vs %s", a.Summary.WorkflowDigest, b.Summary.WorkflowDigest)
	}
	if len(a.Records) != len(b.Records) {
		t.Fatalf("record counts differ: %d vs %d", len(a.Records), len(b.Records))
	}
	for i := range a.Records {
		ra, rb := a.Records[i], b.Records[i]
		if ra.Region != rb.Region || ra.MaxLabels != rb.MaxLabels || ra.AbandonAfter != rb.AbandonAfter {
			t.Fatalf("record %d workflow differs: %+v vs %+v", i, ra, rb)
		}
		if strings.Join(ra.Labels, ",") != strings.Join(rb.Labels, ",") {
			t.Fatalf("record %d label sequence differs:\n%v\n%v", i, ra.Labels, rb.Labels)
		}
	}
}

// TestBackoffHonorsRetryAfter hammers a 2-session server with 6 users
// and checks the admission-control contract: rejects are honored with
// scaled Retry-After waits, never counted as latency samples or SLO
// violations, and the fleet converges — every session completes.
func TestBackoffHonorsRetryAfter(t *testing.T) {
	srv := startServer(t, func(c *server.Config) {
		c.MaxSessions = 2
		c.MaxQueuedSteps = 1
	})
	const scale = 0.01 // Retry-After 2s -> 20ms real wait
	var mu sync.Mutex
	var waits []time.Duration
	sleep := func(d time.Duration) {
		mu.Lock()
		waits = append(waits, d)
		mu.Unlock()
		time.Sleep(d)
	}
	p := smokeProfile(6)
	p.AbandonProb = 0 // every session runs to done: convergence proof
	res, err := Run(srv.URL, p, Options{
		Sleep:      sleep,
		RetryScale: scale,
		MaxRetries: 200,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Summary
	rejects := s.Backoff.Rejects429 + s.Backoff.Rejects503
	if rejects == 0 {
		t.Fatal("6 users against a 2-session cap produced no backpressure")
	}
	if s.TotalErrors() != 0 {
		t.Fatalf("backpressure surfaced as errors: %+v", failedRecords(res.Records))
	}
	if s.Sessions.Completed != s.Sessions.Planned {
		t.Fatalf("fleet did not converge: %+v", s.Sessions)
	}
	// Rejected requests are not latency samples: every recorded step
	// matches a successful step in some record.
	var okSteps int64
	for _, r := range res.Records {
		okSteps += int64(r.Steps)
	}
	if s.Steps.Count != okSteps {
		t.Fatalf("step latency count %d != successful steps %d (rejects leaked in)", s.Steps.Count, okSteps)
	}
	// The waits honored the server's Retry-After hint (1s or 2s scaled,
	// plus up to 50% jitter).
	minHint := time.Duration(float64(time.Second) * scale)
	var backoffWaits int
	mu.Lock()
	defer mu.Unlock()
	for _, w := range waits {
		if w >= minHint {
			backoffWaits++
		}
	}
	if backoffWaits == 0 {
		t.Fatalf("no sleep as long as a scaled Retry-After hint (%v) among %d sleeps", minHint, len(waits))
	}
	if s.Backoff.WaitMs <= 0 {
		t.Fatal("backoff wait time not accounted")
	}
}

// TestTraceJoin runs a traced fleet and joins the collected trace ids
// against the server's trace stream.
func TestTraceJoin(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	tracer := obs.NewTracer(f)
	srv := startServer(t, func(c *server.Config) { c.Tracer = tracer })

	res, err := Run(srv.URL, smokeProfile(4), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.TraceIDs) == 0 {
		t.Fatal("traced server returned no trace ids")
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	join, err := JoinTraceFile(path, res.TraceIDs)
	if err != nil {
		t.Fatal(err)
	}
	if join.Matched != len(res.TraceIDs) {
		t.Fatalf("matched %d of %d trace ids (missing %d)", join.Matched, len(res.TraceIDs), join.Missing)
	}
	if join.Missing != 0 || len(join.Steps.Steps) != join.Matched {
		t.Fatalf("join is incomplete: %+v", join)
	}
	res.Summary.TraceJoin = join
	var human bytes.Buffer
	res.Summary.WriteHuman(&human)
	// The matched steps are rendered by uei-trace's own report.
	for _, want := range []string{"trace_join matched=", "SLO COMPLIANCE", "PHASE BREAKDOWN", "SLOWEST STEPS"} {
		if !strings.Contains(human.String(), want) {
			t.Errorf("human report missing %q:\n%s", want, human.String())
		}
	}
}
