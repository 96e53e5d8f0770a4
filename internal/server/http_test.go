package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
)

// paddedObject is an empty JSON object of exactly n bytes: braces around
// n-2 spaces.
func paddedObject(n int) string {
	return "{" + strings.Repeat(" ", n-2) + "}"
}

// TestRequestBodies pins how the API reads request bodies, through the
// handler: fields the request type does not have and data after the JSON
// value answer 400 naming the problem, a body past its cap answers 413
// naming the cap, and the bodies the CI script and the benchmark send are
// accepted.
func TestRequestBodies(t *testing.T) {
	dir, ds := buildLiveStore(t, 1500)
	m := newTestManager(t, dir, func(c *Config) { c.LiveIngest = true })
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()

	var interactive SessionInfo
	if status := postJSON(t, srv.Client(), srv.URL+"/v1/sessions", `{"max_labels":5}`, &interactive); status != http.StatusCreated {
		t.Fatalf("create: status %d", status)
	}
	bounds := m.Index().Bounds()
	benchSpec, err := json.Marshal(SessionSpec{MaxLabels: 8, SampleSize: 200, Seed: 3,
		Oracle: &OracleSpec{Center: bounds.Center(), Widths: bounds.Widths()}})
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name   string
		path   string
		body   string
		status int
		// says is a substring the error body must hold.
		says string
	}{
		{"ring", "/v1/sessions", `{"oracle":{"selectivity":0.05,"ring":{}}}`, http.StatusBadRequest, `unknown field "ring"`},
		{"drift", "/v1/sessions", `{"oracle":{"selectivity":0.05,"drift":{"offset_frac":0.1}}}`, http.StatusBadRequest, `unknown field "drift"`},
		{"oracle_seed", "/v1/sessions", `{"oracle":{"selectivity":0.05,"seed":42}}`, http.StatusBadRequest, `unknown field "seed"`},
		{"unknown_step_field", "/v1/sessions/" + interactive.ID + "/step", `{"lable":"positive"}`, http.StatusBadRequest, `unknown field "lable"`},
		{"trailing_object", "/v1/sessions", `{"max_labels":5}{"max_labels":6}`, http.StatusBadRequest, "trailing data"},
		{"trailing_garbage", "/v1/sessions", `{"max_labels":5} x`, http.StatusBadRequest, "parse body"},
		{"truncated", "/v1/sessions", `{"max_labels":5`, http.StatusBadRequest, "parse body"},
		{"create_at_cap", "/v1/sessions", paddedObject(maxBodyBytes), http.StatusCreated, ""},
		{"create_over_cap", "/v1/sessions", paddedObject(maxBodyBytes + 1), http.StatusRequestEntityTooLarge, strconv.Itoa(maxBodyBytes)},
		{"append_over_cap", "/v1/append", paddedObject(maxAppendBodyBytes + 1), http.StatusRequestEntityTooLarge, strconv.Itoa(maxAppendBodyBytes)},
		{"ci_oracle_session", "/v1/sessions", `{"max_labels":8,"oracle":{"selectivity":0.01}}`, http.StatusCreated, ""},
		{"ci_interactive_session", "/v1/sessions", `{"max_labels":5}`, http.StatusCreated, ""},
		{"ci_append", "/v1/append", rowsJSON(t, ds, 0), http.StatusOK, ""},
		{"ci_step", "/v1/sessions/" + interactive.ID + "/step", "", http.StatusOK, ""},
		{"bench_session", "/v1/sessions", string(benchSpec), http.StatusCreated, ""},
		{"bench_append", "/v1/append", rowsJSON(t, ds, 1, 2), http.StatusOK, ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			resp, err := srv.Client().Post(srv.URL+c.path, "application/json", bytes.NewReader([]byte(c.body)))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			data, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != c.status {
				t.Fatalf("status %d (%s), want %d", resp.StatusCode, data, c.status)
			}
			if c.says == "" {
				return
			}
			var body errorJSON
			if err := json.Unmarshal(data, &body); err != nil {
				t.Fatalf("error body %q: %v", data, err)
			}
			if !strings.Contains(body.Error, c.says) {
				t.Fatalf("error %q does not say %q", body.Error, c.says)
			}
		})
	}
}
