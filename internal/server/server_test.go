package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"github.com/uei-db/uei/internal/core"
	"github.com/uei-db/uei/internal/dataset"
	"github.com/uei-db/uei/internal/ide"
	"github.com/uei-db/uei/internal/learn"
	"github.com/uei-db/uei/internal/memcache"
	"github.com/uei-db/uei/internal/obs"
	"github.com/uei-db/uei/internal/oracle"
	"github.com/uei-db/uei/internal/shard"
)

// buildStore builds a small synthetic store and returns its directory plus
// the generating dataset (for client-side ground truth).
func buildStore(t testing.TB, n int) (string, *dataset.Dataset) {
	t.Helper()
	ds, err := dataset.GenerateSky(dataset.SkyConfig{N: n, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := core.Build(dir, ds, core.BuildOptions{TargetChunkBytes: 4096}); err != nil {
		t.Fatal(err)
	}
	return dir, ds
}

// newTestManager opens a manager over the store with test-friendly
// defaults; mut customizes the config.
func newTestManager(t testing.TB, dir string, mut func(*Config)) *Manager {
	t.Helper()
	cfg := Config{
		StoreDir:              dir,
		TotalBudgetBytes:      4 << 20,
		MinSessionBudgetBytes: 32 << 10,
		MaxSessions:           8,
		Seed:                  5,
	}
	if mut != nil {
		mut(&cfg)
	}
	m, err := NewManager(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = m.Close(context.Background()) })
	return m
}

// TestArbiterShares: equal-share partitioning, rebalance on admit/release,
// saturation at the minimum share, and Resize propagation into budgets.
func TestArbiterShares(t *testing.T) {
	a, err := NewArbiter(1000, 200, obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	g1, err := a.Admit("a")
	if err != nil || g1 != 1000 {
		t.Fatalf("first admit: grant %d err %v, want 1000", g1, err)
	}
	b1, err := memcache.NewBudget(g1)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Attach("a", b1); err != nil {
		t.Fatal(err)
	}
	g2, err := a.Admit("b")
	if err != nil || g2 != 500 {
		t.Fatalf("second admit: grant %d err %v, want 500", g2, err)
	}
	// The first session's budget shrank with the rebalance.
	if got := b1.Capacity(); got != 500 {
		t.Fatalf("budget a capacity after rebalance = %d, want 500", got)
	}
	if _, err := a.Admit("b"); err == nil {
		t.Fatal("double admit should fail")
	}
	// 1000/5 = 200 is viable, 1000/6 = 166 is not.
	for _, id := range []string{"c", "d", "e"} {
		if _, err := a.Admit(id); err != nil {
			t.Fatalf("admit %s: %v", id, err)
		}
	}
	if _, err := a.Admit("f"); !errors.Is(err, ErrSaturated) {
		t.Fatalf("sixth admit: want ErrSaturated, got %v", err)
	}
	a.Release("b")
	if got := a.Grant("a"); got != 250 {
		t.Fatalf("grant after release = %d, want 250", got)
	}
	if got := b1.Capacity(); got != 250 {
		t.Fatalf("budget a capacity after release = %d, want 250", got)
	}
	a.Release("b") // releasing twice is a no-op
	if n := a.Sessions(); n != 4 {
		t.Fatalf("sessions = %d, want 4", n)
	}
}

// fakeCache records the capacities the arbiter pushes into it.
type fakeCache struct {
	mu   sync.Mutex
	caps []int64
}

func (f *fakeCache) Resize(capacity int64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.caps = append(f.caps, capacity)
	return nil
}

func (f *fakeCache) last() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.caps) == 0 {
		return -1
	}
	return f.caps[len(f.caps)-1]
}

// TestArbiterCacheShare: the cache holds its target share while sessions
// fit above the minimum, yields progressively (down to zero) as admissions
// push equal shares toward the minimum, never changes admission capacity,
// and grows back when sessions release.
func TestArbiterCacheShare(t *testing.T) {
	a, err := NewArbiter(1000, 200, obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	fc := &fakeCache{}
	if err := a.AttachCache(fc, 801); err == nil {
		t.Fatal("cache target leaving less than one minimum share should be rejected")
	}
	if err := a.AttachCache(fc, 300); err != nil {
		t.Fatal(err)
	}
	if got := a.CacheShare(); got != 300 || fc.last() != 300 {
		t.Fatalf("idle cache share = %d (resized to %d), want 300", got, fc.last())
	}

	wantGrants := []struct {
		id    string
		grant int64
		cache int64
	}{
		{"a", 700, 300}, // (1000-300)/1
		{"b", 350, 300}, // (1000-300)/2
		{"c", 233, 300}, // (1000-300)/3
		{"d", 200, 200}, // 175 < min: cache yields to 1000-4*200
		{"e", 200, 0},   // cache squeezed out entirely
	}
	for _, w := range wantGrants {
		g, err := a.Admit(w.id)
		if err != nil {
			t.Fatalf("admit %s: %v", w.id, err)
		}
		if g != w.grant {
			t.Fatalf("admit %s: grant %d, want %d", w.id, g, w.grant)
		}
		if got := a.CacheShare(); got != w.cache {
			t.Fatalf("after admit %s: cache share %d, want %d", w.id, got, w.cache)
		}
	}
	if fc.last() != 0 {
		t.Fatalf("cache last resized to %d, want 0", fc.last())
	}
	// Admission capacity is exactly what it would be with no cache: 1000/6
	// is below the minimum.
	if _, err := a.Admit("f"); !errors.Is(err, ErrSaturated) {
		t.Fatalf("sixth admit: want ErrSaturated, got %v", err)
	}
	// Releases hand memory back to the cache before growing per-session
	// shares past what the target allows.
	a.Release("e")
	if got := a.CacheShare(); got != 200 {
		t.Fatalf("cache share after one release = %d, want 200", got)
	}
	a.Release("d")
	if got, grant := a.CacheShare(), a.Grant("a"); got != 300 || grant != 233 {
		t.Fatalf("after two releases: cache %d grant %d, want 300/233", got, grant)
	}
}

// TestManagerBlockCacheParity runs the same seeded oracle exploration on a
// cache-enabled and a cacheless manager and requires identical results —
// the serving-layer form of the cache's byte-identical contract — then
// checks the cache actually absorbed reads and joined the arbiter ledger.
func TestManagerBlockCacheParity(t *testing.T) {
	dir, _ := buildStore(t, 1500)
	ctx := context.Background()
	spec := SessionSpec{
		MaxLabels:  15,
		SampleSize: 200,
		Seed:       7,
		Oracle:     &OracleSpec{Selectivity: 0.05},
	}
	run := func(m *Manager) ResultInfo {
		info, err := m.Create(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		for n := 0; n < 200; n++ {
			resp, err := m.Step(ctx, info.ID, StepRequest{})
			if err != nil {
				t.Fatal(err)
			}
			if resp.Done {
				break
			}
		}
		res, err := m.Result(ctx, info.ID)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	plain := newTestManager(t, dir, func(c *Config) { c.SnapshotDir = t.TempDir() })
	cached := newTestManager(t, dir, func(c *Config) {
		c.SnapshotDir = t.TempDir()
		c.BlockCacheBytes = 1 << 20
	})
	bc := cached.Index().BlockCache()
	if bc == nil {
		t.Fatal("BlockCacheBytes set but no cache installed on the index")
	}
	if plain.Index().BlockCache() != nil {
		t.Fatal("cacheless manager grew a cache")
	}

	want := run(plain)
	got := run(cached)
	if len(want.Positive) == 0 {
		t.Fatal("reference exploration retrieved nothing")
	}
	if fmt.Sprint(want.Positive) != fmt.Sprint(got.Positive) {
		t.Fatalf("cached result differs: %d rows vs %d", len(got.Positive), len(want.Positive))
	}

	if s := bc.Stats(); s.Hits == 0 {
		t.Errorf("exploration produced no cache hits: %+v", s)
	}
	if share := cached.arb.CacheShare(); share <= 0 {
		t.Errorf("cache share = %d, want positive", share)
	}
	snap := cached.Registry().Snapshot()
	if g := snap.Gauges["uei_server_block_cache_share_bytes"]; g <= 0 {
		t.Errorf("uei_server_block_cache_share_bytes = %v, want positive", g)
	}
	if snap.Counters["blockcache_hits_total"] == 0 {
		t.Error("blockcache_hits_total not exported on the server registry")
	}
}

// TestStatusForMap pins the full error -> HTTP mapping, including the
// Retry-After backpressure hints, with every sentinel wrapped the way real
// call sites wrap them.
func TestStatusForMap(t *testing.T) {
	cases := []struct {
		name   string
		err    error
		status int
		retry  int
	}{
		{"bad request", fmt.Errorf("spec: %w", errBadRequest), http.StatusBadRequest, 0},
		{"body too large", fmt.Errorf("read body: %w", &http.MaxBytesError{Limit: maxBodyBytes}), http.StatusRequestEntityTooLarge, 0},
		{"unknown session", fmt.Errorf("session %q: %w", "s1", ErrUnknownSession), http.StatusNotFound, 0},
		{"queue full", fmt.Errorf("busy: %w", ErrQueueFull), http.StatusTooManyRequests, 1},
		{"saturated", fmt.Errorf("cap: %w", ErrSaturated), http.StatusServiceUnavailable, 2},
		{"draining", ErrDraining, http.StatusServiceUnavailable, 2},
		{"budget", fmt.Errorf("region: %w", memcache.ErrBudgetExceeded), http.StatusServiceUnavailable, 1},
		{"shard unavailable", fmt.Errorf("shard 0 fetch: %w", errors.Join(core.ErrShardUnavailable, errors.New("connection refused"))), http.StatusServiceUnavailable, 1},
		{"closed", fmt.Errorf("index: %w", core.ErrClosed), http.StatusGone, 0},
		{"not fitted", fmt.Errorf("finish: %w", learn.ErrNotFitted), http.StatusConflict, 0},
		{"no candidates", fmt.Errorf("acquire: %w", ide.ErrNoCandidates), http.StatusUnprocessableEntity, 0},
		{"canceled", context.Canceled, http.StatusServiceUnavailable, 1},
		{"deadline", context.DeadlineExceeded, http.StatusServiceUnavailable, 1},
		{"unknown", errors.New("boom"), http.StatusInternalServerError, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, retry := statusFor(tc.err)
			if status != tc.status || retry != tc.retry {
				t.Fatalf("statusFor(%v) = (%d, %d), want (%d, %d)", tc.err, status, retry, tc.status, tc.retry)
			}
			rec := httptest.NewRecorder()
			writeError(rec, tc.err)
			if rec.Code != tc.status {
				t.Fatalf("writeError status = %d, want %d", rec.Code, tc.status)
			}
			if tc.retry > 0 && rec.Header().Get("Retry-After") == "" {
				t.Fatal("writeError dropped the Retry-After hint")
			}
			var body errorJSON
			if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body.Error == "" {
				t.Fatalf("writeError body %q not an error JSON (%v)", rec.Body.String(), err)
			}
		})
	}
}

// postJSON posts a JSON body and decodes the response into out, returning
// the status code.
func postJSON(t *testing.T, client *http.Client, url string, body string, out any) int {
	t.Helper()
	resp, err := client.Post(url, "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode < 300 {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("decode %s: %v (body %q)", url, err, data)
		}
	}
	return resp.StatusCode
}

// getJSON fetches a URL and decodes the response.
func getJSON(t *testing.T, client *http.Client, url string, out any) int {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode < 300 {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("decode %s: %v (body %q)", url, err, data)
		}
	}
	return resp.StatusCode
}

// TestHTTPConcurrentSessions is the serving acceptance scenario: two
// concurrent oracle-mode sessions complete a 20-iteration exploration over
// one shared index via HTTP, a third session is refused with 503 +
// Retry-After while the server is at capacity and admitted after a delete
// frees a slot, and the step metrics land in the registry. Run with -race.
func TestHTTPConcurrentSessions(t *testing.T) {
	dir, _ := buildStore(t, 2500)
	m := newTestManager(t, dir, func(c *Config) { c.MaxSessions = 2 })
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()
	client := srv.Client()

	create := func() SessionInfo {
		var info SessionInfo
		status := postJSON(t, client, srv.URL+"/v1/sessions",
			`{"max_labels":22,"sample_size":200,"seed":11,"oracle":{"selectivity":0.02}}`, &info)
		if status != http.StatusCreated {
			t.Fatalf("create: status %d", status)
		}
		return info
	}
	s1, s2 := create(), create()

	// Capacity reached: the third session must be refused with 503 and a
	// Retry-After hint, not an error page and not a hang.
	resp, err := client.Post(srv.URL+"/v1/sessions", "application/json",
		bytes.NewReader([]byte(`{"oracle":{"selectivity":0.02}}`)))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("third create: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("third create: missing Retry-After")
	}
	resp.Body.Close()

	// Both sessions explore concurrently to completion.
	var wg sync.WaitGroup
	iters := make([]int, 2)
	errs := make([]error, 2)
	for i, s := range []SessionInfo{s1, s2} {
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			for n := 0; n < 200; n++ {
				var step StepResponse
				status := postJSON(t, client, srv.URL+"/v1/sessions/"+id+"/step", `{}`, &step)
				if status != http.StatusOK {
					errs[i] = fmt.Errorf("step %d: status %d", n, status)
					return
				}
				if step.Iteration != nil {
					iters[i] = step.Iteration.Iteration
				}
				if step.Done {
					return
				}
			}
			errs[i] = fmt.Errorf("session %s never finished", id)
		}(i, s.ID)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
	}
	for i, n := range iters {
		if n < 20 {
			t.Errorf("session %d ran %d iterations, want >= 20", i, n)
		}
	}

	// Results are served for both, and the latency metrics landed.
	for _, s := range []SessionInfo{s1, s2} {
		var res ResultInfo
		if status := getJSON(t, client, srv.URL+"/v1/sessions/"+s.ID+"/result", &res); status != http.StatusOK {
			t.Fatalf("result %s: status %d", s.ID, status)
		}
		if !res.Done || res.LabelsUsed != 22 {
			t.Errorf("result %s: done=%v labels=%d, want done with 22 labels", s.ID, res.Done, res.LabelsUsed)
		}
	}
	snap := m.Registry().Snapshot()
	if got := snap.Counters["uei_server_steps_total"]; got < 40 {
		t.Errorf("uei_server_steps_total = %d, want >= 40", got)
	}
	if got := snap.Counters["uei_server_admission_rejects_total"]; got < 1 {
		t.Errorf("uei_server_admission_rejects_total = %d, want >= 1", got)
	}
	if h, ok := snap.Histograms["uei_server_step_seconds"]; !ok || h.Count < 40 {
		t.Errorf("uei_server_step_seconds count = %v, want >= 40 observations", h.Count)
	}

	// Deleting a finished session frees its slot; the next create succeeds.
	req, err := http.NewRequest(http.MethodDelete, srv.URL+"/v1/sessions/"+s1.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: status %d", dresp.StatusCode)
	}
	if status := getJSON(t, client, srv.URL+"/v1/sessions/"+s1.ID, nil); status != http.StatusNotFound {
		t.Fatalf("get deleted session: status %d, want 404", status)
	}
	create()
}

// TestHTTPInteractiveSession drives a Feed-labeled session over HTTP: the
// client answers each proposal from its own ground truth, exactly as a UI
// would relay a human's judgments.
func TestHTTPInteractiveSession(t *testing.T) {
	dir, ds := buildStore(t, 1500)
	m := newTestManager(t, dir, nil)
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()
	client := srv.Client()

	// Client-side ground truth over a broad region, so random bootstrap
	// finds both classes quickly.
	region, err := oracle.FindRegion(ds, 0.4, 0.5, 11, 12)
	if err != nil {
		t.Fatal(err)
	}
	user, err := oracle.New(ds, region)
	if err != nil {
		t.Fatal(err)
	}

	var info SessionInfo
	if status := postJSON(t, client, srv.URL+"/v1/sessions",
		`{"max_labels":12,"sample_size":150,"seed":11}`, &info); status != http.StatusCreated {
		t.Fatalf("create: status %d", status)
	}

	var step StepResponse
	if status := postJSON(t, client, srv.URL+"/v1/sessions/"+info.ID+"/step", `{}`, &step); status != http.StatusOK {
		t.Fatalf("first step: status %d", status)
	}
	answered := 0
	for n := 0; n < 200 && !step.Done; n++ {
		if step.Proposal == nil {
			t.Fatalf("step returned neither proposal nor done: %+v", step)
		}
		label := "negative"
		if user.LabelPoint(step.Proposal.Row) == oracle.Positive {
			label = "positive"
		}
		answered++
		body := fmt.Sprintf(`{"label":%q}`, label)
		if status := postJSON(t, client, srv.URL+"/v1/sessions/"+info.ID+"/step", body, &step); status != http.StatusOK {
			t.Fatalf("labeled step: status %d", status)
		}
	}
	if !step.Done {
		t.Fatal("session never finished")
	}
	if answered != 12 {
		t.Errorf("answered %d labels, want 12", answered)
	}
	var res ResultInfo
	if status := getJSON(t, client, srv.URL+"/v1/sessions/"+info.ID+"/result", &res); status != http.StatusOK {
		t.Fatalf("result: status %d", status)
	}
	if len(res.Positive) == 0 {
		t.Error("interactive session retrieved nothing")
	}
	// A label posted to an oracle-mode session is a client mistake (400).
	var o SessionInfo
	if status := postJSON(t, client, srv.URL+"/v1/sessions",
		`{"oracle":{"selectivity":0.02}}`, &o); status != http.StatusCreated {
		t.Fatalf("oracle create: status %d", status)
	}
	resp, err := client.Post(srv.URL+"/v1/sessions/"+o.ID+"/step", "application/json",
		bytes.NewReader([]byte(`{"label":"positive"}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("label on oracle session: status %d, want 400", resp.StatusCode)
	}
}

// TestQueueFull: a session whose bounded queue is full refuses further
// steps with ErrQueueFull (HTTP 429) instead of queueing unboundedly.
func TestQueueFull(t *testing.T) {
	dir, _ := buildStore(t, 800)
	m := newTestManager(t, dir, func(c *Config) { c.MaxQueuedSteps = 1 })
	info, err := m.Create(context.Background(), SessionSpec{Oracle: &OracleSpec{Selectivity: 0.05}})
	if err != nil {
		t.Fatal(err)
	}
	h, err := m.lookup(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	h.tickets <- struct{}{} // a step is "in flight"
	_, err = m.Step(context.Background(), info.ID, StepRequest{})
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("want ErrQueueFull, got %v", err)
	}
	if status, retry := statusFor(err); status != http.StatusTooManyRequests || retry == 0 {
		t.Fatalf("queue-full maps to (%d, %d), want (429, >0)", status, retry)
	}
	<-h.tickets
	if _, err := m.Step(context.Background(), info.ID, StepRequest{}); err != nil {
		t.Fatalf("step after queue drained: %v", err)
	}
	if got := m.Registry().Snapshot().Counters["uei_server_queue_rejects_total"]; got != 1 {
		t.Errorf("uei_server_queue_rejects_total = %d, want 1", got)
	}
}

// TestHTTPDeadShardIs503: an operation that needs a shard the server
// cannot reach answers 503 with Retry-After, naming the shard, not 500: a
// create whose oracle needs the dataset, which cannot be fetched, and a
// retrieving /result whose scan fails. The failed fetch is not remembered:
// once the shard answers, the next create succeeds.
func TestHTTPDeadShardIs503(t *testing.T) {
	dir, _ := buildStore(t, 1500)
	m := newTestManager(t, dir, nil)
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()
	client := srv.Client()
	failing := func(op string) shard.FaultHook {
		return func(_ context.Context, _, _ int, got string) error {
			if got == op {
				return errors.New("worker gone")
			}
			return nil
		}
	}
	require503 := func(what string, resp *http.Response) {
		t.Helper()
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
			t.Fatalf("%s: status %d, Retry-After %q; want 503 with a hint (body %s)", what, resp.StatusCode, resp.Header.Get("Retry-After"), body)
		}
		if !bytes.Contains(body, []byte("shard unavailable")) {
			t.Errorf("%s: body %s does not name the unavailable shard", what, body)
		}
	}
	spec := `{"max_labels":20,"sample_size":150,"seed":3,"oracle":{"selectivity":0.05}}`
	coord := m.Index().ShardCoordinator()

	coord.SetFaultHook(failing(shard.OpFetch))
	resp, err := client.Post(srv.URL+"/v1/sessions", "application/json", bytes.NewReader([]byte(spec)))
	if err != nil {
		t.Fatal(err)
	}
	require503("create with the sample unfetchable", resp)

	coord.SetFaultHook(nil)
	// The failure is not remembered: once the shard answers, create works.
	var info SessionInfo
	if status := postJSON(t, client, srv.URL+"/v1/sessions", spec, &info); status != http.StatusCreated {
		t.Fatalf("create once the shard answers again: status %d", status)
	}
	for i := 0; i < 5; i++ {
		if status := postJSON(t, client, srv.URL+"/v1/sessions/"+info.ID+"/step", `{}`, nil); status != http.StatusOK {
			t.Fatalf("step %d: status %d", i, status)
		}
	}
	coord.SetFaultHook(failing(shard.OpRetrieve))
	resp, err = client.Get(srv.URL + "/v1/sessions/" + info.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	require503("result with the scan failing", resp)
}

// TestDrain: Close rejects new work, evicts live sessions to snapshots,
// and a second Close is a no-op.
func TestDrain(t *testing.T) {
	dir, _ := buildStore(t, 800)
	m := newTestManager(t, dir, nil)
	ctx := context.Background()
	info, err := m.Create(ctx, SessionSpec{MaxLabels: 15, Oracle: &OracleSpec{Selectivity: 0.05}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := m.Step(ctx, info.ID, StepRequest{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Create(ctx, SessionSpec{}); !errors.Is(err, ErrDraining) {
		t.Fatalf("create while drained: want ErrDraining, got %v", err)
	}
	if _, err := m.Step(ctx, info.ID, StepRequest{}); !errors.Is(err, ErrDraining) {
		t.Fatalf("step while drained: want ErrDraining, got %v", err)
	}
	h, err := m.lookup(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	h.mu.Lock()
	state, snapPath := h.state, h.snapPath
	h.mu.Unlock()
	if state != stateEvicted || snapPath == "" {
		t.Fatalf("after drain: state %v snapshot %q, want evicted with a snapshot", state, snapPath)
	}
	if err := m.Close(ctx); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}
