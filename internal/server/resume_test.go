package server

import (
	"context"
	"os"
	"testing"
	"time"
)

// runSteps drives an oracle-mode session n steps (or to completion),
// returning the selected tuple id of every completed iteration.
func runSteps(t *testing.T, m *Manager, id string, n int) (ids []uint32, done bool) {
	t.Helper()
	ctx := context.Background()
	for i := 0; i < n; i++ {
		resp, err := m.Step(ctx, id, StepRequest{})
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if resp.Iteration != nil {
			ids = append(ids, resp.Iteration.SelectedID)
		}
		if resp.Done {
			return ids, true
		}
	}
	return ids, false
}

// TestEvictResumeParity: a session evicted mid-exploration and resumed from
// its snapshot selects exactly the tuples an uninterrupted session selects,
// and retrieves the same final result. The spec pins seed and sample size
// (so the rebuilt view draws the same sample) and both managers grant the
// same budget share.
func TestEvictResumeParity(t *testing.T) {
	dir, _ := buildStore(t, 2500)
	spec := SessionSpec{
		MaxLabels:  25,
		SampleSize: 200,
		Seed:       13,
		Oracle:     &OracleSpec{Selectivity: 0.02},
	}
	ctx := context.Background()

	// Uninterrupted reference run.
	mRef := newTestManager(t, dir, func(c *Config) { c.SnapshotDir = t.TempDir() })
	ref, err := mRef.Create(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	refIDs, refDone := runSteps(t, mRef, ref.ID, 100)
	if !refDone {
		t.Fatal("reference session never finished")
	}
	refRes, err := mRef.Result(ctx, ref.ID)
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted run: step 8 times, force-evict, then continue.
	m := newTestManager(t, dir, func(c *Config) { c.SnapshotDir = t.TempDir() })
	info, err := m.Create(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	gotIDs, done := runSteps(t, m, info.ID, 8)
	if done {
		t.Fatal("session finished before the eviction point")
	}
	h, err := m.lookup(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	h.mu.Lock()
	err = m.evictLocked(h)
	state, snapPath := h.state, h.snapPath
	h.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if state != stateEvicted || snapPath == "" {
		t.Fatalf("after evict: state %v snapshot %q", state, snapPath)
	}
	if _, err := os.Stat(snapPath); err != nil {
		t.Fatalf("snapshot file: %v", err)
	}
	if n := m.arb.Sessions(); n != 0 {
		t.Fatalf("evicted session still holds a budget grant (%d admitted)", n)
	}

	// The next step transparently resumes and the exploration completes.
	tailIDs, done := runSteps(t, m, info.ID, 100)
	if !done {
		t.Fatal("resumed session never finished")
	}
	gotIDs = append(gotIDs, tailIDs...)

	snap := m.Registry().Snapshot()
	if snap.Counters["uei_server_evictions_total"] != 1 || snap.Counters["uei_server_resumes_total"] != 1 {
		t.Errorf("evictions=%d resumes=%d, want 1/1",
			snap.Counters["uei_server_evictions_total"], snap.Counters["uei_server_resumes_total"])
	}

	if len(gotIDs) != len(refIDs) {
		t.Fatalf("interrupted run selected %d tuples, reference %d", len(gotIDs), len(refIDs))
	}
	for i := range refIDs {
		if gotIDs[i] != refIDs[i] {
			t.Fatalf("selection %d diverged after resume: got %d, reference %d", i, gotIDs[i], refIDs[i])
		}
	}
	res, err := m.Result(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Positive) != len(refRes.Positive) {
		t.Fatalf("retrieved %d positives, reference %d", len(res.Positive), len(refRes.Positive))
	}
	for i := range res.Positive {
		if res.Positive[i] != refRes.Positive[i] {
			t.Fatalf("positive %d diverged: got %d, reference %d", i, res.Positive[i], refRes.Positive[i])
		}
	}
	if res.LabelsUsed != refRes.LabelsUsed || res.Iterations != refRes.Iterations {
		t.Errorf("effort diverged: labels %d/%d iterations %d/%d",
			res.LabelsUsed, refRes.LabelsUsed, res.Iterations, refRes.Iterations)
	}
}

// TestIdleEviction: the janitor evicts an idle session on its own and the
// session answers its next request as if nothing happened.
func TestIdleEviction(t *testing.T) {
	dir, _ := buildStore(t, 1200)
	m := newTestManager(t, dir, func(c *Config) { c.IdleTimeout = 30 * time.Millisecond })
	ctx := context.Background()
	info, err := m.Create(ctx, SessionSpec{MaxLabels: 20, Oracle: &OracleSpec{Selectivity: 0.03}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Step(ctx, info.ID, StepRequest{}); err != nil {
		t.Fatal(err)
	}
	// Wait for the janitor to evict the idle session.
	deadline := 200
	for i := 0; ; i++ {
		got, err := m.Get(info.ID)
		if err != nil {
			t.Fatal(err)
		}
		if got.State == "evicted" {
			break
		}
		if i >= deadline {
			t.Fatal("janitor never evicted the idle session")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Next step resumes transparently.
	resp, err := m.Step(ctx, info.ID, StepRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Iteration == nil && !resp.Done {
		t.Fatalf("resumed step returned nothing: %+v", resp)
	}
	if got, _ := m.Get(info.ID); got.State != "live" {
		t.Fatalf("session state after resume = %s, want live", got.State)
	}
}
