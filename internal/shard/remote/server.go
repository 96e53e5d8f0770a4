package remote

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"strconv"
	"time"

	"github.com/uei-db/uei/internal/shard"
)

// maxBodyBytes bounds a request body on the worker and a reply body on
// the client. The largest legitimate request is a fetch id list, far below
// it; the largest reply is a retrieve that marks every segment, the
// shard's every row at about 100 B a row as JSON, which passes the cap
// near 670k rows a shard.
const maxBodyBytes = 64 << 20

// Server serves one opened sharded store over the wire protocol. It
// answers for every shard in the store's layout; placement (which shards
// a coordinator asks this worker for) is decided client-side, so workers
// over a shared store directory need no per-worker configuration.
type Server struct {
	coord *shard.Coordinator
	man   *shard.Manifest
	mux   *http.ServeMux
	logf  func(format string, args ...any)
}

// NewServer wraps an opened coordinator (shard.Open over the sharded
// directory). man is the store's top-level manifest, served verbatim in
// the fleet handshake (shard.LoadManifest of the same directory). logf
// receives one line per request; nil uses log.Printf.
func NewServer(coord *shard.Coordinator, man *shard.Manifest, logf func(format string, args ...any)) *Server {
	if logf == nil {
		logf = log.Printf
	}
	s := &Server{coord: coord, man: man, mux: http.NewServeMux(), logf: logf}
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	s.mux.HandleFunc("GET /v1/meta", s.handleMeta)
	// A request's contents are checked here, at the wire boundary, before
	// they reach a backend that trusts its (in-process) caller: what the
	// client got wrong answers 400, so a 5xx always means this worker is
	// at fault.
	g := coord.Meta().Grid
	handleOp(s, shard.OpLoad, func(ctx context.Context, b shard.Backend, req LoadRequest) (LoadResponse, error) {
		if req.Cell < 0 || int(req.Cell) >= g.NumCells() {
			return LoadResponse{}, badRequest(fmt.Errorf("cell %d outside grid [0,%d)", req.Cell, g.NumCells()))
		}
		ids, vals, entries, err := b.LoadCell(ctx, req.Cell)
		return LoadResponse{IDs: ids, Vals: vals, Entries: entries}, err
	})
	handleOp(s, shard.OpFetch, func(ctx context.Context, b shard.Backend, req FetchRequest) (FetchResponse, error) {
		for i := 1; i < len(req.IDs); i++ {
			if req.IDs[i] <= req.IDs[i-1] {
				return FetchResponse{}, badRequest(fmt.Errorf("ids must be strictly ascending: ids[%d] = %d follows %d", i, req.IDs[i], req.IDs[i-1]))
			}
		}
		rows, err := b.FetchRows(ctx, req.IDs)
		return FetchResponse{Rows: rows}, err
	})
	handleOp(s, shard.OpRetrieve, func(ctx context.Context, b shard.Backend, req RetrieveRequest) (RetrieveResponse, error) {
		segs := g.Segments()
		if len(req.Marked) != len(segs) {
			return RetrieveResponse{}, badRequest(fmt.Errorf("marked has %d dimensions, grid has %d", len(req.Marked), len(segs)))
		}
		for d, m := range req.Marked {
			if len(m) != segs[d] {
				return RetrieveResponse{}, badRequest(fmt.Errorf("marked[%d] has %d flags, dimension has %d segments", d, len(m), segs[d]))
			}
		}
		parts, entries, err := b.Retrieve(ctx, req.Marked)
		return RetrieveResponse{Parts: parts, Entries: entries}, err
	})
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	// Echo the caller's trace id so the response is correlatable even
	// through proxies that strip request context from logs.
	if tid := r.Header.Get(TraceHeader); tid != "" {
		w.Header().Set(TraceHeader, tid)
	}
	start := time.Now()
	lw := &loggingWriter{ResponseWriter: w, status: http.StatusOK}
	s.mux.ServeHTTP(lw, r)
	if r.URL.Path != "/healthz" {
		tid := r.Header.Get(TraceHeader)
		if tid == "" {
			tid = "-"
		}
		s.logf("%s %s status=%d bytes=%d dur=%s trace=%s", r.Method, r.URL.Path, lw.status, lw.bytes, time.Since(start).Round(time.Microsecond), tid)
	}
}

// handleMeta answers the fleet handshake: the manifest plus each shard's
// on-disk payload, which the client folds into Meta.TotalBytes.
func (s *Server) handleMeta(w http.ResponseWriter, _ *http.Request) {
	n := s.coord.NumShards()
	bytes := make([]int64, n)
	for i := 0; i < n; i++ {
		bytes[i] = s.coord.Backends(i)[0].Stats().TotalBytes
	}
	writeJSON(w, http.StatusOK, MetaResponse{Manifest: s.man, ShardBytes: bytes})
}

// handleOp registers one POST /v1/shards/{id}/<op> route: decode the
// request, run fn against the shard's in-process backend under the
// request context, encode the response. A package-level generic
// because methods cannot have type parameters.
func handleOp[Req, Resp any](s *Server, op string, fn func(ctx context.Context, b shard.Backend, req Req) (Resp, error)) {
	s.mux.HandleFunc("POST /v1/shards/{id}/"+op, func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.Atoi(r.PathValue("id"))
		if err != nil || id < 0 || id >= s.coord.NumShards() {
			writeJSON(w, http.StatusNotFound, ErrorResponse{Error: fmt.Sprintf("shard %q not served (have %d shards)", r.PathValue("id"), s.coord.NumShards())})
			return
		}
		var req Req
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
		if err := dec.Decode(&req); err != nil {
			writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "decoding request: " + err.Error()})
			return
		}
		resp, err := fn(r.Context(), s.coord.Backends(id)[0], req)
		if err != nil {
			status := http.StatusInternalServerError
			var br *badRequestError
			switch {
			case errors.As(err, &br):
				status = http.StatusBadRequest
			case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
				// The client hung up (deadline, cancelled scatter): 499-style.
				status = statusClientClosedRequest
			}
			writeJSON(w, status, ErrorResponse{Error: err.Error()})
			return
		}
		writeJSON(w, http.StatusOK, resp)
	})
}

// statusClientClosedRequest mirrors nginx's 499: the caller cancelled, so
// no 5xx alarm should fire.
const statusClientClosedRequest = 499

// badRequestError marks a client-side input error (cell outside the grid,
// unsorted ids, mask shape mismatch) so it maps to 400 rather than 500.
type badRequestError struct{ err error }

func (e *badRequestError) Error() string { return e.err.Error() }
func (e *badRequestError) Unwrap() error { return e.err }

func badRequest(err error) error { return &badRequestError{err: err} }

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

// loggingWriter captures status and size for the access log.
type loggingWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *loggingWriter) WriteHeader(status int) {
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}

func (w *loggingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}
