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

	"github.com/uei-db/uei/internal/dataset"
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

// FuzzRequestBodies posts arbitrary bodies to the three routes that read
// one — create, step (on a fresh interactive session) and append — on a
// live-ingest manager. Whatever the body, the handler must not panic,
// must answer with a status the API documents, must explain every non-2xx
// answer in an errorJSON body, and may answer 413 only to a body past the
// route's cap. Every session the target creates is deleted, so the
// manager's session limit never fills. The seeds are TestRequestBodies'
// bodies.
func FuzzRequestBodies(f *testing.F) {
	const (
		routeCreate = iota
		routeStep
		routeAppend
		routes
	)
	dir, ds := buildLiveStore(f, 1500)
	m := newTestManager(f, dir, func(c *Config) { c.LiveIngest = true })
	srv := httptest.NewServer(m.Handler())
	f.Cleanup(srv.Close)

	bounds := m.Index().Bounds()
	benchSpec, err := json.Marshal(SessionSpec{MaxLabels: 8, SampleSize: 200, Seed: 3,
		Oracle: &OracleSpec{Center: bounds.Center(), Widths: bounds.Widths()}})
	if err != nil {
		f.Fatal(err)
	}
	appendBody := func(ids ...int) string {
		var req AppendRequest
		for _, id := range ids {
			req.Rows = append(req.Rows, ds.CopyRow(dataset.RowID(id)))
		}
		b, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		return string(b)
	}
	// A seed is a body and how many spaces precede it: the cap cases are
	// paddedObject's bodies as "{}" behind n-2 spaces, so no corpus entry
	// is megabytes long.
	type seed struct {
		body string
		pad  uint32
	}
	for route, seeds := range [routes][]seed{
		routeCreate: {
			{body: `{"oracle":{"selectivity":0.05,"ring":{}}}`},
			{body: `{"oracle":{"selectivity":0.05,"drift":{"offset_frac":0.1}}}`},
			{body: `{"oracle":{"selectivity":0.05,"seed":42}}`},
			{body: `{"max_labels":5}{"max_labels":6}`},
			{body: `{"max_labels":5} x`},
			{body: `{"max_labels":5`},
			{"{}", maxBodyBytes - 2},
			{"{}", maxBodyBytes - 1},
			{body: `{"max_labels":8,"oracle":{"selectivity":0.01}}`},
			{body: `{"max_labels":5}`},
			{body: string(benchSpec)},
		},
		routeStep:   {{body: `{"lable":"positive"}`}, {}},
		routeAppend: {{"{}", maxAppendBodyBytes - 1}, {body: appendBody(0)}, {body: appendBody(1, 2)}},
	} {
		for _, s := range seeds {
			f.Add(uint8(route), []byte(s.body), s.pad)
		}
	}

	f.Fuzz(func(t *testing.T, route uint8, raw []byte, pad uint32) {
		client := srv.Client()
		path, limit := "/v1/sessions", maxBodyBytes
		if route%routes == routeAppend {
			path, limit = "/v1/append", maxAppendBodyBytes
		}
		// Leading whitespace leaves a JSON body's meaning as it is; the
		// modulus lets the padding reach one byte past the cap, no further.
		body := append(bytes.Repeat([]byte(" "), int(pad%uint32(limit+2))), raw...)
		if route%routes == routeStep {
			var info SessionInfo
			if status := postJSON(t, client, srv.URL+"/v1/sessions", `{"max_labels":5}`, &info); status != http.StatusCreated {
				t.Fatalf("create the session to step: status %d", status)
			}
			defer deleteSession(t, client, srv.URL, info.ID)
			path = "/v1/sessions/" + info.ID + "/step"
		}
		resp, err := client.Post(srv.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		switch resp.StatusCode {
		case http.StatusOK, http.StatusCreated, http.StatusBadRequest, http.StatusNotFound,
			http.StatusConflict, http.StatusRequestEntityTooLarge, http.StatusUnprocessableEntity,
			http.StatusTooManyRequests, http.StatusServiceUnavailable:
		default:
			t.Fatalf("POST %s: status %d (%s)", path, resp.StatusCode, data)
		}
		if resp.StatusCode >= 300 {
			var e errorJSON
			if err := json.Unmarshal(data, &e); err != nil || e.Error == "" {
				t.Fatalf("POST %s: status %d with body %q, not an error object", path, resp.StatusCode, data)
			}
		}
		if resp.StatusCode == http.StatusRequestEntityTooLarge && len(body) <= limit {
			t.Fatalf("POST %s: 413 for a %d-byte body under the %d-byte cap", path, len(body), limit)
		}
		if route%routes == routeCreate && resp.StatusCode == http.StatusCreated {
			var info SessionInfo
			if err := json.Unmarshal(data, &info); err != nil {
				t.Fatal(err)
			}
			deleteSession(t, client, srv.URL, info.ID)
		}
	})
}

// deleteSession deletes a session through the API.
func deleteSession(t *testing.T, client *http.Client, base, id string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, base+"/v1/sessions/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete session %s: status %d", id, resp.StatusCode)
	}
}
