package remote_test

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"github.com/uei-db/uei/internal/core"
	"github.com/uei-db/uei/internal/dataset"
	"github.com/uei-db/uei/internal/grid"
	"github.com/uei-db/uei/internal/kernel"
	"github.com/uei-db/uei/internal/learn"
	"github.com/uei-db/uei/internal/obs"
	"github.com/uei-db/uei/internal/shard"
	"github.com/uei-db/uei/internal/shard/remote"
)

func quiet(string, ...any) {}

// worker opens a sharded store and serves it over httptest.
type worker struct {
	idx   *core.Index
	coord *shard.Coordinator
	srv   *httptest.Server
}

func buildStore(t testing.TB, n, shards int, seed int64) (string, *dataset.Dataset) {
	t.Helper()
	ds, err := dataset.GenerateSky(dataset.SkyConfig{N: n, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := core.Build(dir, ds, core.BuildOptions{TargetChunkBytes: 2048, Shards: shards}); err != nil {
		t.Fatal(err)
	}
	return dir, ds
}

func startWorker(t testing.TB, dir string, shards int) *worker {
	t.Helper()
	idx, err := core.Open(context.Background(), dir, core.Options{
		MemoryBudgetBytes: 1 << 20, Shards: shards, Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(idx.Close)
	coord := idx.ShardCoordinator()
	if coord == nil {
		t.Fatal("store is not sharded")
	}
	man, err := shard.LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(remote.NewServer(coord, man, quiet))
	t.Cleanup(srv.Close)
	return &worker{idx: idx, coord: coord, srv: srv}
}

func trainedModel(t testing.TB, ds *dataset.Dataset) learn.Classifier {
	t.Helper()
	bounds, err := ds.Bounds()
	if err != nil {
		t.Fatal(err)
	}
	model := learn.NewDWKNN(5, bounds.Widths())
	var X [][]float64
	var y []int
	for i := 0; i < 20; i++ {
		X = append(X, ds.CopyRow(dataset.RowID(i*(ds.Len()/20))))
		y = append(y, i%2)
	}
	if err := model.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	return model
}

// ownedCellWithData finds a cell of shard s that actually holds tuples.
func ownedCellWithData(t *testing.T, c *shard.Coordinator, s int) grid.CellID {
	t.Helper()
	meta := c.Meta()
	for cell := 0; cell < meta.Grid.NumCells(); cell++ {
		owner, err := c.OwnerOfCell(grid.CellID(cell))
		if err != nil {
			t.Fatal(err)
		}
		if owner != s {
			continue
		}
		if ids, _, _, err := c.Backends(s)[0].LoadCell(context.Background(), grid.CellID(cell)); err == nil && len(ids) > 0 {
			return grid.CellID(cell)
		}
	}
	t.Fatalf("shard %d owns no populated cell", s)
	return 0
}

// TestRemoteBackendParity round-trips every Backend operation through the
// wire protocol and requires byte-identical answers to the in-process
// backend: the transport must be invisible.
func TestRemoteBackendParity(t *testing.T) {
	ctx := context.Background()
	dir, _ := buildStore(t, 600, 2, 11)
	w := startWorker(t, dir, 2)

	client := remote.NewClient(w.srv.URL, nil)
	meta, err := client.Meta(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Manifest.Shards != 2 {
		t.Fatalf("meta reports %d shards", meta.Manifest.Shards)
	}

	cmeta := w.coord.Meta()
	for s := 0; s < 2; s++ {
		local := w.coord.Backends(s)[0]
		rem := remote.NewShardClient(client, s, meta.ShardBytes[s])

		cell := ownedCellWithData(t, w.coord, s)
		lIDs, lVals, lEntries, err := local.LoadCell(ctx, cell)
		if err != nil {
			t.Fatal(err)
		}
		rIDs, rVals, rEntries, err := rem.LoadCell(ctx, cell)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(lIDs, rIDs) || !reflect.DeepEqual(lVals, rVals) || lEntries != rEntries {
			t.Fatalf("shard %d cell %d: remote load differs from local", s, cell)
		}

		ids := []uint32{0, 1, 2, 7, 100, 333, 599}
		lRows, err := local.FetchRows(ctx, ids)
		if err != nil {
			t.Fatal(err)
		}
		rRows, err := rem.FetchRows(ctx, ids)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(lRows, rRows) {
			t.Fatalf("shard %d: remote fetch differs from local", s)
		}

		marked := make([][]bool, cmeta.Dims())
		for d := range marked {
			marked[d] = make([]bool, cmeta.SegmentsPerDim)
			for i := range marked[d] {
				marked[d][i] = i%2 == 0
			}
		}
		lRet, lRetEntries, err := local.Retrieve(ctx, marked)
		if err != nil {
			t.Fatal(err)
		}
		rRet, rRetEntries, err := rem.Retrieve(ctx, marked)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(lRet, rRet) || lRetEntries != rRetEntries {
			t.Fatalf("shard %d: remote retrieve differs from local", s)
		}
	}
}

// TestTraceHeaderEcho: the worker echoes X-Uei-Trace-Id, and the client
// stamps it from a traced context.
func TestTraceHeaderEcho(t *testing.T) {
	dir, _ := buildStore(t, 300, 2, 5)
	w := startWorker(t, dir, 2)

	body := strings.NewReader(`{"cell":0}`)
	req, err := http.NewRequest(http.MethodPost, w.srv.URL+"/v1/shards/0/load", body)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(remote.TraceHeader, "trace-echo-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get(remote.TraceHeader); got != "trace-echo-42" {
		t.Errorf("worker echoed trace id %q, want %q", got, "trace-echo-42")
	}

	// The client stamps the header from the context's trace.
	var seen string
	capture := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		seen = r.Header.Get(remote.TraceHeader)
		w.srv.Config.Handler.ServeHTTP(rw, r)
	}))
	defer capture.Close()
	tr := obs.NewTracer(io.Discard).NewTrace()
	ctx := obs.ContextWithTrace(context.Background(), tr)
	sc := remote.NewShardClient(remote.NewClient(capture.URL, nil), 0, 0)
	if _, _, _, err := sc.LoadCell(ctx, 0); err != nil {
		t.Fatal(err)
	}
	if seen == "" || seen != tr.ID() {
		t.Errorf("client sent trace id %q, context trace is %q", seen, tr.ID())
	}
}

// TestServerErrorMapping checks the status-code contract: unknown shard →
// 404; an undecodable request, or a decodable one whose contents the worker
// cannot serve — a cell outside the grid, ids out of order, a mask of the
// wrong shape — → 400 (never 5xx, which a coordinator counts as a replica
// fault); all carry a JSON error body.
func TestServerErrorMapping(t *testing.T) {
	dir, _ := buildStore(t, 300, 2, 5)
	w := startWorker(t, dir, 2)

	post := func(path, body string) (*http.Response, string) {
		resp, err := http.Post(w.srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, string(b)
	}

	for _, tc := range []struct {
		name, path, body string
		want             int
	}{
		{"unknown shard", "/v1/shards/99/load", `{"cell":0}`, http.StatusNotFound},
		{"bad json", "/v1/shards/0/fetch", `{not json`, http.StatusBadRequest},
		{"descending ids", "/v1/shards/0/fetch", `{"ids":[12,11,10,9,8,7,6,5,4,3,2,1,0]}`, http.StatusBadRequest},
		{"repeated id", "/v1/shards/0/fetch", `{"ids":[3,3]}`, http.StatusBadRequest},
		{"cell beyond the grid", "/v1/shards/0/load", `{"cell":999999}`, http.StatusBadRequest},
		{"negative cell", "/v1/shards/0/load", `{"cell":-1}`, http.StatusBadRequest},
		{"mask of the wrong shape", "/v1/shards/0/retrieve", `{"marked":[[true]]}`, http.StatusBadRequest},
	} {
		resp, body := post(tc.path, tc.body)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d (body %q)", tc.name, resp.StatusCode, tc.want, body)
		}
		var e remote.ErrorResponse
		if err := json.Unmarshal([]byte(body), &e); err != nil || e.Error == "" {
			t.Errorf("%s: body %q is not an error envelope", tc.name, body)
		}
	}

	resp, body := post("/v1/shards/0/fetch", `{"ids":[0,1,2,3,4,5,6,7,8,9,10,11,12]}`)
	var got remote.FetchResponse
	if err := json.Unmarshal([]byte(body), &got); resp.StatusCode != http.StatusOK || err != nil {
		t.Fatalf("ascending ids: status %d, body %q", resp.StatusCode, body)
	}
	for _, r := range got.Rows {
		if r.ID > 12 {
			t.Errorf("ascending ids: row %d was not asked for", r.ID)
		}
	}
}

// TestConnectReplicatedParity: a replicated remote coordinator answers
// exactly as the local one it proxies — the symbolic scores it computes
// in-process, and every operation that crosses the wire for rows.
func TestConnectReplicatedParity(t *testing.T) {
	ctx := context.Background()
	dir, ds := buildStore(t, 600, 2, 11)
	w1 := startWorker(t, dir, 2)
	w2 := startWorker(t, dir, 2)
	model := trainedModel(t, ds)

	rcoord, err := remote.Connect(ctx, remote.ConnectOptions{
		Endpoints:   []string{w1.srv.URL, w2.srv.URL},
		Replication: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rcoord.NumShards() != 2 || rcoord.Replication() != 2 {
		t.Fatalf("remote coordinator: %d shards, replication %d", rcoord.NumShards(), rcoord.Replication())
	}

	want := make([]float64, w1.coord.Meta().Grid.NumCells())
	if _, err := w1.coord.ScoreAllPass(ctx, model, want, shard.ScorePass{}); err != nil {
		t.Fatal(err)
	}
	got := make([]float64, rcoord.Meta().Grid.NumCells())
	if _, err := rcoord.ScoreAllPass(ctx, model, got, shard.ScorePass{}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("remote replicated scoring differs from local")
	}

	for s := 0; s < 2; s++ {
		cell := ownedCellWithData(t, w1.coord, s)
		lIDs, lVals, lEntries, err := w1.coord.LoadCell(ctx, cell)
		if err != nil {
			t.Fatal(err)
		}
		rIDs, rVals, rEntries, err := rcoord.LoadCell(ctx, cell)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(lIDs, rIDs) || !reflect.DeepEqual(lVals, rVals) || lEntries != rEntries {
			t.Fatalf("cell %d: remote load differs from local", cell)
		}
	}
	ids := []uint32{599, 0, 7, 7, 100, 333}
	lRows, err := w1.coord.FetchRows(ctx, ids)
	if err != nil {
		t.Fatal(err)
	}
	rRows, err := rcoord.FetchRows(ctx, ids)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(lRows, rRows) {
		t.Fatal("remote fetch differs from local")
	}
}

// TestConnectMetaMismatch: a fleet serving two different stores is
// rejected at handshake.
func TestConnectMetaMismatch(t *testing.T) {
	dirA, _ := buildStore(t, 400, 2, 1)
	dirB, _ := buildStore(t, 500, 2, 2)
	wA := startWorker(t, dirA, 2)
	wB := startWorker(t, dirB, 2)
	_, err := remote.Connect(context.Background(), remote.ConnectOptions{
		Endpoints: []string{wA.srv.URL, wB.srv.URL},
	})
	if err == nil || !strings.Contains(err.Error(), "disagree") {
		t.Fatalf("mismatched fleet: err = %v, want a disagree error", err)
	}
}

func TestConnectValidation(t *testing.T) {
	if _, err := remote.Connect(context.Background(), remote.ConnectOptions{}); err == nil {
		t.Error("no endpoints: want error")
	}
	dir, _ := buildStore(t, 300, 2, 5)
	w := startWorker(t, dir, 2)
	_, err := remote.Connect(context.Background(), remote.ConnectOptions{
		Endpoints:   []string{w.srv.URL},
		Replication: 2,
	})
	if err == nil {
		t.Error("replication 2 over 1 endpoint: want error")
	}
}

// TestKillWorkerFailover: with R=2, losing one worker mid-flight degrades
// nothing — the surviving replica answers identically; losing both
// exhausts the replicas.
func TestKillWorkerFailover(t *testing.T) {
	ctx := context.Background()
	dir, _ := buildStore(t, 600, 2, 11)
	w1 := startWorker(t, dir, 2)
	w2 := startWorker(t, dir, 2)

	rcoord, err := remote.Connect(ctx, remote.ConnectOptions{
		Endpoints:   []string{w1.srv.URL, w2.srv.URL},
		Replication: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	ids := []uint32{0, 3, 9, 100, 599}
	want, err := rcoord.FetchRows(ctx, ids)
	if err != nil {
		t.Fatal(err)
	}

	w1.srv.CloseClientConnections()
	w1.srv.Close()
	got, err := rcoord.FetchRows(ctx, ids)
	if err != nil {
		t.Fatalf("fetch after killing one of two replicas: %v", err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("failover changed the result set")
	}

	w2.srv.CloseClientConnections()
	w2.srv.Close()
	_, err = rcoord.FetchRows(ctx, ids)
	if err == nil {
		t.Fatal("fetch with every worker dead should fail")
	}
	if !errors.Is(err, shard.ErrReplicaExhausted) || !errors.Is(err, shard.ErrShardUnavailable) {
		t.Fatalf("err = %v, want ErrReplicaExhausted and ErrShardUnavailable in the chain", err)
	}
}

// TestRetrieveRejectsMalformedParts: core indexes a retrieved part's block
// by point and its ids by position, so a worker's reply whose ids, block
// header and backing array disagree must fail in ShardClient.Retrieve with
// an error, not later with an index panic in the caller.
func TestRetrieveRejectsMalformedParts(t *testing.T) {
	const dims = 2
	// A well-formed part: 3 points, 2 dims, stride 8.
	good := func() remote.RetrieveResponse {
		data := make([]float64, dims*8)
		return remote.RetrieveResponse{Entries: 6, Parts: []shard.RetrievedPart{{
			IDs: []uint32{4, 9, 17},
			Blk: &kernel.Block{N: 3, Dims: dims, Stride: 8, Data: data},
		}}}
	}
	cases := []struct {
		name   string
		mangle func(*shard.RetrievedPart)
		ok     bool
	}{
		{"well formed", func(*shard.RetrievedPart) {}, true},
		{"short data", func(p *shard.RetrievedPart) { p.Blk.Data = p.Blk.Data[:dims*8-1] }, false},
		{"fewer ids than points", func(p *shard.RetrievedPart) { p.IDs = p.IDs[:2] }, false},
		{"more points than ids", func(p *shard.RetrievedPart) { p.Blk.N = 5 }, false},
		{"points beyond the stride", func(p *shard.RetrievedPart) {
			p.IDs = []uint32{1, 2, 3, 4, 5, 6, 7, 8, 9}
			p.Blk.N = 9
		}, false},
		{"wrong dims", func(p *shard.RetrievedPart) { p.Blk.Dims, p.Blk.Stride = 1, 16 }, false},
		{"descending ids", func(p *shard.RetrievedPart) { p.IDs = []uint32{4, 17, 9} }, false},
		{"repeated id", func(p *shard.RetrievedPart) { p.IDs = []uint32{4, 9, 9} }, false},
		{"no block", func(p *shard.RetrievedPart) { p.Blk = nil }, false},
	}
	var reply remote.RetrieveResponse
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		json.NewEncoder(w).Encode(reply)
	}))
	defer srv.Close()
	backend := remote.NewShardClient(remote.NewClient(srv.URL, nil), 0, 0)
	marked := make([][]bool, dims)
	for _, tc := range cases {
		reply = good()
		tc.mangle(&reply.Parts[0])
		parts, entries, err := backend.Retrieve(context.Background(), marked)
		switch {
		case tc.ok && (err != nil || len(parts) != 1 || entries != 6):
			t.Errorf("%s: Retrieve = %d parts, %d entries, %v", tc.name, len(parts), entries, err)
		case !tc.ok && err == nil:
			t.Errorf("%s: Retrieve accepted the reply", tc.name)
		}
	}
}

// countingHandler records the path of every request it forwards.
type countingHandler struct {
	next  http.Handler
	mu    sync.Mutex
	paths []string
}

func (h *countingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.mu.Lock()
	h.paths = append(h.paths, r.URL.Path)
	h.mu.Unlock()
	h.next.ServeHTTP(w, r)
}

// take returns the paths seen since the last take.
func (h *countingHandler) take() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := h.paths
	h.paths = nil
	return out
}

// TestRemoteStepRoundTrips counts what a step of a remote index sends its
// worker: the symbolic index is scored and ranked in the index's own
// process, so a step that swaps regions sends one request — the winning
// cell's load — and a step whose winner is already resident sends none,
// whether the model is unchanged, refit on the same labels, or refit on an
// append-only extension of them.
func TestRemoteStepRoundTrips(t *testing.T) {
	ctx := context.Background()
	dir, ds := buildStore(t, 2000, 2, 11)
	w := startWorker(t, dir, 2)
	counter := &countingHandler{next: w.srv.Config.Handler}
	front := httptest.NewServer(counter)
	defer front.Close()

	idx, err := core.Open(ctx, "", core.Options{
		MemoryBudgetBytes: 1 << 20, SampleSize: 64, Workers: 2,
		ShardEndpoints: []string{front.URL},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	if err := idx.InitExploration(ctx); err != nil {
		t.Fatal(err)
	}
	counter.take() // the handshake and the γ-sample fetch are not steps

	bounds, err := ds.Bounds()
	if err != nil {
		t.Fatal(err)
	}
	var X [][]float64
	var y []int
	label := func(n int) {
		for ; n > 0; n-- {
			i := len(X)
			X = append(X, ds.CopyRow(dataset.RowID(i*(ds.Len()/64))))
			y = append(y, i%2)
		}
	}
	// step refits a fresh model on the labels so far and runs the region
	// half of an iteration, returning the requests it cost and whether the
	// resident region changed.
	step := func() (paths []string, swapped bool) {
		t.Helper()
		model := learn.NewDWKNN(5, bounds.Widths())
		if err := model.Fit(X, y); err != nil {
			t.Fatal(err)
		}
		before := idx.ResidentRegion()
		idx.InvalidateScores()
		cell, err := idx.EnsureRegion(ctx, model)
		if err != nil {
			t.Fatal(err)
		}
		if idx.LastStepDegraded() {
			t.Fatal("healthy worker, degraded step")
		}
		return counter.take(), int(cell) != before
	}

	label(10)
	paths, swapped := step()
	if !swapped || len(paths) != 1 || !strings.HasSuffix(paths[0], "/load") {
		t.Fatalf("first step: swapped = %v, requests %v; want one load", swapped, paths)
	}
	// The same labels refit: the model is unchanged, the region resident.
	if paths, swapped := step(); swapped || len(paths) != 0 {
		t.Fatalf("unchanged model: swapped = %v, requests %v; want none", swapped, paths)
	}
	// Append-only refits: whatever the winner, a step costs one load when
	// it swaps and nothing when it does not.
	swaps, stays := 0, 0
	for i := 0; i < 20; i++ {
		label(1)
		paths, swapped := step()
		switch {
		case swapped && (len(paths) != 1 || !strings.HasSuffix(paths[0], "/load")):
			t.Fatalf("refit %d swapped regions with requests %v; want one load", i, paths)
		case !swapped && len(paths) != 0:
			t.Fatalf("refit %d kept its region but sent %v; want none", i, paths)
		}
		if swapped {
			swaps++
		} else {
			stays++
		}
	}
	if stays == 0 {
		t.Errorf("no append-only refit kept its region (%d swaps); the resident case went untested", swaps)
	}
}
