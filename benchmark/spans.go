package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one request
// share Req; Parent is the span that caused this one (0 for a request's
// root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps the traced run's spans in memory until the run ends. The
// benchmark has one request in flight at a time and every span nests inside
// the previous open one, so the open spans form a single stack even though
// the client and the HTTP handler run on different goroutines. A nil
// recorder records nothing, which is how the untraced rounds run the same
// code.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	open  []int
	req   int
	// rung prefixes request root spans: "client" (A, over HTTP), "inproc"
	// (B, Manager methods) or "engine" (C, ide sessions).
	rung string
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span under the innermost open one; a span opened on an
// empty stack starts a new request. The span is named when it ends.
func (r *recorder) begin() int {
	if r == nil {
		return 0
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	parent := 0
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	} else {
		r.req++
	}
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Req: r.req, Start: now})
	r.open = append(r.open, id)
	return id
}

// end closes the innermost open span, which must be id, as "<rung>.<name>"
// when it is a request's root and as name otherwise.
func (r *recorder) end(id int, name string) {
	if r == nil {
		return
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	if n := len(r.open); n == 0 || r.open[n-1] != id {
		panic("benchmark: spans closed out of order")
	}
	r.open = r.open[:len(r.open)-1]
	if len(r.open) == 0 {
		name = r.rung + "." + name
	}
	r.spans[id-1].Name, r.spans[id-1].End = name, now
}

// spanKey groups spans by their own name and their parent's ("" for a
// request's root).
type spanKey struct{ Name, Parent string }

// spanTotal sums a group: span count, total time, and self time (a span's
// duration minus the part its children cover).
type spanTotal struct {
	Count   int
	TotalNs int64
	SelfNs  int64
}

func (r *recorder) totals() map[spanKey]spanTotal {
	r.mu.Lock()
	defer r.mu.Unlock()
	child := make([]int64, len(r.spans)+1)
	for _, s := range r.spans {
		child[s.Parent] += s.End - s.Start
	}
	out := map[spanKey]spanTotal{}
	for _, s := range r.spans {
		k := spanKey{Name: s.Name}
		if s.Parent > 0 {
			k.Parent = r.spans[s.Parent-1].Name
		}
		t := out[k]
		t.Count++
		t.TotalNs += s.End - s.Start
		t.SelfNs += s.End - s.Start - child[s.ID]
		out[k] = t
	}
	return out
}

// writeJSONL writes one span per line.
func (r *recorder) writeJSONL(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
