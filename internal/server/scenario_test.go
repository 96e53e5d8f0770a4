package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
)

// runScenario creates a session with the spec and steps it to completion,
// returning the result. Fails the test on any error.
func runScenario(t *testing.T, m *Manager, spec SessionSpec) ResultInfo {
	t.Helper()
	ctx := context.Background()
	info, err := m.Create(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < 300; n++ {
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
	if err := m.Delete(info.ID); err != nil {
		t.Fatal(err)
	}
	return res
}

// TestOracleSpecScenarios exercises the scenario-building OracleSpec
// extensions end to end: a multi-region target bootstraps, explores, and
// retrieves through the real session machinery.
func TestOracleSpecScenarios(t *testing.T) {
	dir, _ := buildStore(t, 1500)
	m := newTestManager(t, dir, nil)
	base := SessionSpec{MaxLabels: 12, SampleSize: 200, Seed: 7}

	cases := []struct {
		name string
		osp  OracleSpec
	}{
		{"multi_region", OracleSpec{Selectivity: 0.05, Regions: 2}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			spec := base
			osp := c.osp
			spec.Oracle = &osp
			res := runScenario(t, m, spec)
			if res.LabelsUsed == 0 {
				t.Fatal("scenario session solicited no labels")
			}
		})
	}
}

// TestOracleSpecDeterministic: identical specs (session seed, sample size,
// oracle scenario) must reproduce identical explorations, checked at the
// session layer.
func TestOracleSpecDeterministic(t *testing.T) {
	dir, _ := buildStore(t, 1500)
	m := newTestManager(t, dir, nil)
	spec := SessionSpec{
		MaxLabels:  10,
		SampleSize: 200,
		Seed:       11,
		Oracle:     &OracleSpec{Selectivity: 0.05, Regions: 2},
	}
	a := runScenario(t, m, spec)
	b := runScenario(t, m, spec)
	if fmt.Sprint(a.Positive) != fmt.Sprint(b.Positive) {
		t.Fatalf("same spec, different retrievals: %d rows vs %d", len(a.Positive), len(b.Positive))
	}
}

// TestOracleSpecValidation pins the 400-family rejections for malformed
// scenario specs.
func TestOracleSpecValidation(t *testing.T) {
	dir, _ := buildStore(t, 800)
	m := newTestManager(t, dir, nil)
	cases := []struct {
		name string
		osp  OracleSpec
	}{
		{"regions_without_selectivity", OracleSpec{Regions: 2}},
		{"regions_with_center", OracleSpec{Regions: 2, Center: []float64{1, 2, 3, 4, 5}, Widths: []float64{1, 1, 1, 1, 1}}},
		{"center_width_wrong_dims", OracleSpec{Center: []float64{1, 2}, Widths: []float64{1, 1}}},
		{"empty", OracleSpec{}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			osp := c.osp
			_, err := m.Create(context.Background(), SessionSpec{MaxLabels: 5, Oracle: &osp})
			if !errors.Is(err, errBadRequest) {
				t.Fatalf("want errBadRequest, got %v", err)
			}
		})
	}
}

// TestHealthEndpoints pins the liveness/readiness split: /healthz answers
// 200 with a HealthInfo body even while draining, /readyz flips to 503,
// and the body reports live-session count and snapshot state.
func TestHealthEndpoints(t *testing.T) {
	dir, _ := buildStore(t, 800)
	m := newTestManager(t, dir, nil)
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()

	get := func(path string) (int, HealthInfo) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var info HealthInfo
		if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
			t.Fatalf("%s: decode body: %v", path, err)
		}
		return resp.StatusCode, info
	}

	code, info := get("/healthz")
	if code != http.StatusOK || info.Status != "ok" || info.Draining {
		t.Fatalf("healthz = %d %+v, want 200 ok", code, info)
	}
	if info.Rows == 0 || info.MaxSessions == 0 {
		t.Fatalf("healthz body missing store state: %+v", info)
	}
	if code, info = get("/readyz"); code != http.StatusOK || info.Draining {
		t.Fatalf("readyz = %d %+v, want 200", code, info)
	}

	// A live session must show up in the admission counter.
	created, err := m.Create(context.Background(), SessionSpec{MaxLabels: 5, Oracle: &OracleSpec{Selectivity: 0.05}})
	if err != nil {
		t.Fatal(err)
	}
	if _, info = get("/healthz"); info.LiveSessions != 1 || info.Sessions != 1 {
		t.Fatalf("after create: live=%d sessions=%d, want 1/1", info.LiveSessions, info.Sessions)
	}
	if err := m.Delete(created.ID); err != nil {
		t.Fatal(err)
	}

	// Draining: liveness stays 200, readiness flips to 503.
	if err := m.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if code, info = get("/healthz"); code != http.StatusOK || info.Status != "draining" || !info.Draining {
		t.Fatalf("healthz while draining = %d %+v, want 200 draining", code, info)
	}
	if code, _ = get("/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining = %d, want 503", code)
	}
}
