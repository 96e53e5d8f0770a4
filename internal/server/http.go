package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"

	"github.com/uei-db/uei/internal/core"
	"github.com/uei-db/uei/internal/ide"
	"github.com/uei-db/uei/internal/learn"
	"github.com/uei-db/uei/internal/memcache"
	"github.com/uei-db/uei/internal/stream"
)

// errBadRequest marks client mistakes (malformed specs, labels on oracle
// sessions, results requested mid-proposal); statusFor maps it to 400.
var errBadRequest = errors.New("server: invalid request")

// statusFor maps an error crossing the HTTP boundary to a status code and
// an optional Retry-After hint (seconds; 0 means none). Backpressure —
// saturation, full queues, budget pressure, cancellation — always carries a
// hint so well-behaved clients back off instead of hammering.
func statusFor(err error) (status, retryAfter int) {
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		return http.StatusRequestEntityTooLarge, 0
	case errors.Is(err, errBadRequest):
		return http.StatusBadRequest, 0
	case errors.Is(err, ErrUnknownSession):
		return http.StatusNotFound, 0
	case errors.Is(err, core.ErrNotLive):
		return http.StatusBadRequest, 0
	case errors.Is(err, stream.ErrOutOfBounds):
		return http.StatusUnprocessableEntity, 0
	case errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests, 1
	case errors.Is(err, ErrSaturated), errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable, 2
	case errors.Is(err, memcache.ErrBudgetExceeded):
		return http.StatusServiceUnavailable, 1
	case errors.Is(err, core.ErrShardUnavailable):
		// A dead or slow shard: a sample, a terminal step or a result that
		// needs every shard cannot be served until it answers again.
		return http.StatusServiceUnavailable, 1
	case errors.Is(err, core.ErrClosed):
		return http.StatusGone, 0
	case errors.Is(err, learn.ErrNotFitted):
		return http.StatusConflict, 0
	case errors.Is(err, ide.ErrNoCandidates):
		return http.StatusUnprocessableEntity, 0
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return http.StatusServiceUnavailable, 1
	default:
		return http.StatusInternalServerError, 0
	}
}

// errorJSON is every error response's body.
type errorJSON struct {
	Error string `json:"error"`
}

// writeError emits the error with its mapped status and Retry-After.
func writeError(w http.ResponseWriter, err error) {
	status, retry := statusFor(err)
	if retry > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(retry))
	}
	writeJSON(w, status, errorJSON{Error: err.Error()})
}

// writeJSON emits a JSON body with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// maxBodyBytes bounds request bodies; specs and labels are tiny.
// Append batches get a larger allowance (maxAppendBodyBytes).
const (
	maxBodyBytes       = 1 << 20
	maxAppendBodyBytes = 16 << 20
)

// readJSON decodes the request body into v, tolerating an empty body (all
// request fields are optional).
func readJSON(w http.ResponseWriter, r *http.Request, v any) error {
	return readJSONLimit(w, r, v, maxBodyBytes)
}

// readJSONLimit decodes one JSON value of at most limit bytes into v. A
// field v does not have, or anything but whitespace after the value, is a
// bad request: a client still sending a field the API dropped must hear so,
// not get a session built without it. A body past limit is an
// *http.MaxBytesError (413).
func readJSONLimit(w http.ResponseWriter, r *http.Request, v any, limit int64) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		if _, err = dec.Token(); err == nil {
			err = errors.New("trailing data after the JSON value")
		}
	}
	var tooLarge *http.MaxBytesError
	switch {
	case err == io.EOF:
		return nil
	case errors.As(err, &tooLarge):
		return fmt.Errorf("read body: over the %d-byte cap: %w", limit, err)
	default:
		return fmt.Errorf("parse body: %v: %w", err, errBadRequest)
	}
}

// Register mounts the session API on mux:
//
//	POST   /v1/sessions           create (body: SessionSpec)
//	GET    /v1/sessions           list
//	GET    /v1/sessions/{id}      session info
//	POST   /v1/sessions/{id}/step advance (body: StepRequest)
//	GET    /v1/sessions/{id}/result retrieved result set
//	DELETE /v1/sessions/{id}      delete
//	POST   /v1/append             ingest rows into a live store (body: AppendRequest)
//	GET    /healthz               liveness (always 200 with a HealthInfo body)
//	GET    /readyz                readiness (503 with HealthInfo while draining)
func (m *Manager) Register(mux *http.ServeMux) {
	mux.HandleFunc("POST /v1/sessions", m.handleCreate)
	mux.HandleFunc("POST /v1/append", m.handleAppend)
	mux.HandleFunc("GET /v1/sessions", m.handleList)
	mux.HandleFunc("GET /v1/sessions/{id}", m.handleGet)
	mux.HandleFunc("POST /v1/sessions/{id}/step", m.handleStep)
	mux.HandleFunc("GET /v1/sessions/{id}/result", m.handleResult)
	mux.HandleFunc("DELETE /v1/sessions/{id}", m.handleDelete)
	mux.HandleFunc("GET /healthz", m.handleHealth)
	mux.HandleFunc("GET /readyz", m.handleReady)
}

// Handler returns a mux with just the session API (tests and embedders).
func (m *Manager) Handler() http.Handler {
	mux := http.NewServeMux()
	m.Register(mux)
	return mux
}

func (m *Manager) handleCreate(w http.ResponseWriter, r *http.Request) {
	var spec SessionSpec
	if err := readJSON(w, r, &spec); err != nil {
		writeError(w, err)
		return
	}
	info, err := m.Create(r.Context(), spec)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, info)
}

func (m *Manager) handleList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, m.List())
}

func (m *Manager) handleGet(w http.ResponseWriter, r *http.Request) {
	info, err := m.Get(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (m *Manager) handleStep(w http.ResponseWriter, r *http.Request) {
	var req StepRequest
	if err := readJSON(w, r, &req); err != nil {
		writeError(w, err)
		return
	}
	resp, err := m.Step(r.Context(), r.PathValue("id"), req)
	if err != nil {
		writeError(w, err)
		return
	}
	if resp.TraceID != "" {
		w.Header().Set("X-Uei-Trace-Id", resp.TraceID)
	}
	writeJSON(w, http.StatusOK, resp)
}

func (m *Manager) handleResult(w http.ResponseWriter, r *http.Request) {
	res, err := m.Result(r.Context(), r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (m *Manager) handleDelete(w http.ResponseWriter, r *http.Request) {
	if err := m.Delete(r.PathValue("id")); err != nil {
		writeError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (m *Manager) handleAppend(w http.ResponseWriter, r *http.Request) {
	var req AppendRequest
	if err := readJSONLimit(w, r, &req, maxAppendBodyBytes); err != nil {
		writeError(w, err)
		return
	}
	resp, err := m.Append(r.Context(), req)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// Serve runs the session API (plus the /metrics and /debug endpoints of
// DebugRoutes) on addr until ctx is canceled, then drains gracefully:
// the listener stops accepting, in-flight requests finish, every live
// session is evicted to its snapshot, and the shared index closes.
func Serve(ctx context.Context, addr string, m *Manager) error {
	mux := http.NewServeMux()
	m.Register(mux)
	DebugRoutes(mux, m.Registry())
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("server: listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	shutErr := srv.Shutdown(shutCtx)
	drainErr := m.Close(shutCtx)
	if drainErr != nil {
		return drainErr
	}
	return shutErr
}
