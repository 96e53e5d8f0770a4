package ide

import (
	"context"
	"fmt"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/uei-db/uei/internal/al"
	"github.com/uei-db/uei/internal/core"
	"github.com/uei-db/uei/internal/shard"
	"github.com/uei-db/uei/internal/shard/remote"
)

// remoteCluster is a worker fleet over one sharded store: every endpoint
// serves the full store (as uei-shardd does), placement picks who answers
// for which shard.
type remoteCluster struct {
	servers []*httptest.Server
	urls    []string
}

// startRemoteCluster builds a sharded store, opens it once as the backing
// data plane, and exposes it through n independent HTTP endpoints.
func (f *fixture) startRemoteCluster(t *testing.T, shards, n int) *remoteCluster {
	t.Helper()
	dir := t.TempDir()
	if err := core.Build(dir, f.ds, core.BuildOptions{TargetChunkBytes: 2048, Shards: shards}); err != nil {
		t.Fatal(err)
	}
	backing, err := core.Open(context.Background(), dir, core.Options{
		MemoryBudgetBytes: 1 << 20, Shards: shards, Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(backing.Close)
	man, err := shard.LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	handler := remote.NewServer(backing.ShardCoordinator(), man, func(string, ...any) {})
	cl := &remoteCluster{}
	for i := 0; i < n; i++ {
		srv := httptest.NewServer(handler)
		t.Cleanup(srv.Close)
		cl.servers = append(cl.servers, srv)
		cl.urls = append(cl.urls, srv.URL)
	}
	return cl
}

// ueiRemoteProvider opens the index over the cluster's wire protocol —
// no local store directory at all.
func (f *fixture) ueiRemoteProvider(t *testing.T, sample, replication int, cl *remoteCluster, hedge time.Duration) *UEIProvider {
	t.Helper()
	idx, err := core.Open(context.Background(), "", core.Options{
		MemoryBudgetBytes: 1 << 20, SampleSize: sample, Seed: 3, Workers: 2,
		ShardEndpoints: cl.urls,
		Replication:    replication,
		HedgeDelay:     hedge,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(idx.Close)
	p, err := NewUEIProvider(idx)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// runRemoteTracedSession mirrors runTracedSession over the remote
// transport. onIteration, when non-nil, sees each iteration as it lands
// (for mid-session fault injection).
func runRemoteTracedSession(t *testing.T, shards, replication, endpoints int, onIteration func(n int, cl *remoteCluster)) sessionTrace {
	t.Helper()
	f := newFixture(t, 1500, 0.02)
	cl := f.startRemoteCluster(t, shards, endpoints)
	p := f.ueiRemoteProvider(t, 200, replication, cl, 0)
	var tr sessionTrace
	cfg := Config{
		MaxLabels:        25,
		EstimatorFactory: f.estimatorFactory(t),
		Strategy:         al.LeastConfidence{},
		Seed:             7,
		SeedWithPositive: true,
		OnIteration: func(it IterationInfo) {
			tr.picks = append(tr.picks, it.SelectedID)
			tr.degraded = append(tr.degraded, it.Degraded)
			if onIteration != nil {
				onIteration(len(tr.picks), cl)
			}
		},
	}
	sess, err := NewSession(cfg, p, OracleLabeler{O: f.orc})
	if err != nil {
		t.Fatal(err)
	}
	ctx, finish := startTestTrace(t)
	res, err := sess.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	finish(len(tr.picks))
	tr.positive = res.Positive
	tr.labels = res.LabelsUsed
	return tr
}

func requireTraceEqual(t *testing.T, got, want sessionTrace) {
	t.Helper()
	if got.labels != want.labels {
		t.Errorf("labels used: %d, local used %d", got.labels, want.labels)
	}
	if len(got.picks) != len(want.picks) {
		t.Fatalf("%d iterations, local ran %d", len(got.picks), len(want.picks))
	}
	for i := range got.picks {
		if got.picks[i] != want.picks[i] {
			t.Fatalf("iteration %d labeled row %d, local labeled %d", i, got.picks[i], want.picks[i])
		}
	}
	if len(got.positive) != len(want.positive) {
		t.Fatalf("retrieved %d rows, local retrieved %d", len(got.positive), len(want.positive))
	}
	for i := range got.positive {
		if got.positive[i] != want.positive[i] {
			t.Fatalf("retrieved[%d] = %d, local has %d", i, got.positive[i], want.positive[i])
		}
	}
}

// TestRemoteSessionParity runs complete exploration sessions over the wire
// protocol at S∈{2,4} × R∈{1,2} and requires byte-identical decisions to
// the local flat run: the network transport, like the sharded layout, is a
// deployment choice, not a semantic one.
func TestRemoteSessionParity(t *testing.T) {
	want := runTracedSession(t, 1)
	if len(want.picks) == 0 || len(want.positive) == 0 {
		t.Fatalf("local session degenerate: %d picks, %d positives", len(want.picks), len(want.positive))
	}
	for _, shards := range []int{2, 4} {
		for _, repl := range []int{1, 2} {
			t.Run(fmt.Sprintf("S=%d/R=%d", shards, repl), func(t *testing.T) {
				got := runRemoteTracedSession(t, shards, repl, 2, nil)
				for i, d := range got.degraded {
					if d {
						t.Errorf("iteration %d flagged degraded on a healthy fleet", i)
					}
				}
				requireTraceEqual(t, got, want)
			})
		}
	}
}

// TestRemoteSessionSurvivesWorkerKill kills one of two workers mid-session
// with R=2: every shard still has a live replica, so the session must
// finish with zero degraded iterations and the same results as a healthy
// run.
func TestRemoteSessionSurvivesWorkerKill(t *testing.T) {
	want := runTracedSession(t, 1)
	killed := false
	got := runRemoteTracedSession(t, 2, 2, 2, func(n int, cl *remoteCluster) {
		if n == 5 && !killed {
			killed = true
			cl.servers[0].CloseClientConnections()
			cl.servers[0].Close()
		}
	})
	if !killed {
		t.Fatal("session too short to kill a worker mid-flight")
	}
	for i, d := range got.degraded {
		if d {
			t.Errorf("iteration %d degraded despite a surviving replica", i)
		}
	}
	requireTraceEqual(t, got, want)
}

// TestRemoteSessionHedgedParity runs the S=2 R=2 session with an
// aggressive hedge delay: duplicated attempts must not change a single
// decision.
func TestRemoteSessionHedgedParity(t *testing.T) {
	want := runTracedSession(t, 1)
	f := newFixture(t, 1500, 0.02)
	cl := f.startRemoteCluster(t, 2, 2)
	p := f.ueiRemoteProvider(t, 200, 2, cl, time.Millisecond)
	var tr sessionTrace
	cfg := Config{
		MaxLabels:        25,
		EstimatorFactory: f.estimatorFactory(t),
		Strategy:         al.LeastConfidence{},
		Seed:             7,
		SeedWithPositive: true,
		OnIteration: func(it IterationInfo) {
			tr.picks = append(tr.picks, it.SelectedID)
			tr.degraded = append(tr.degraded, it.Degraded)
		},
	}
	sess, err := NewSession(cfg, p, OracleLabeler{O: f.orc})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	tr.positive = res.Positive
	tr.labels = res.LabelsUsed
	for i, d := range tr.degraded {
		if d {
			t.Errorf("iteration %d degraded under hedging on a healthy fleet", i)
		}
	}
	requireTraceEqual(t, tr, want)
}
