package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"net/http"
	"time"

	"github.com/uei-db/uei/internal/server"
)

// opKind names the request classes the metrics are reported over.
type opKind uint8

const (
	opCreate   opKind = iota // POST /v1/sessions
	opFirst                  // the first /step: sample load, seeding, first proposal
	opStep                   // a steady /step
	opTerminal               // the /step that returns done (runs result retrieval)
	opResult                 // GET /result
	opDelete                 // DELETE
	opAppend                 // POST /v1/append
)

var opNames = [...]string{"create", "first", "step", "terminal", "result", "delete", "append"}

func (k opKind) String() string { return opNames[k] }

// opRec is one operation of a round.
type opRec struct {
	Kind    opKind
	Session int
	Nanos   int64
	Failed  bool
}

// stepInfo is what the harness needs from a step, whichever rung served it.
type stepInfo struct {
	Done       bool
	Iteration  int
	SelectedID uint32
	Positive   bool
}

// target is one rung of the replay ladder: the same session list can be
// driven over HTTP, through the Manager's methods, or through the engine.
type target interface {
	create(i int, p sessionPlan) error
	step(i int) (stepInfo, error)
	result(i int) ([]uint32, error)
	remove(i int) error
	appendRows(b appendBatch) (firstID uint32, total int, err error)
	// flush commits pending appends as a new epoch (not an analyst
	// request: issued in-process and never timed as an operation).
	flush() error
}

// roundResult is one replay of the session list.
type roundResult struct {
	Ops []opRec
	// LabelDigest covers every iteration's (session, iteration, selected
	// id, label) and every append acknowledgement; ResultDigest covers
	// every /result id list.
	LabelDigest  uint64
	ResultDigest uint64
	// Results and Visible are per session: the retrieved ids, and how many
	// rows of the store were committed when the session last selected.
	Results [][]uint32
	Visible []int
	// TotalRows is the store's row count after the round's appends.
	TotalRows int
	Wall      time.Duration
	Steal     uint64
	// Calib holds one calibration sample per operation, taken right after
	// it (nil when the round ran without a calibrator).
	Calib []time.Duration
	// Err is a failure of the harness's own calls (a flush), which are not
	// operations; a round with one is never used.
	Err error
}

// replayRound drives the plan through t, one request at a time, the next
// sent when the previous one returns. rec, when non-nil, gets a span around
// every request.
func replayRound(t target, p plan, w workload, rec *recorder, cal *calibrator) roundResult {
	var r roundResult
	labels, results := fnv.New64a(), fnv.New64a()
	r.Results = make([][]uint32, len(p.Sessions))
	r.Visible = make([]int, len(p.Sessions))
	committed, total := w.Rows, w.Rows
	steps, appends := 0, 0
	steal0 := readSteal()
	start := time.Now()

	// timed runs one operation; fn reports which kind it turned out to be
	// (only a step learns that from its reply).
	timed := func(sess int, fn func() (opKind, error)) (opKind, bool) {
		id := rec.begin()
		t0 := time.Now()
		kind, err := fn()
		d := time.Since(t0)
		rec.end(id, kind.String())
		r.Ops = append(r.Ops, opRec{Kind: kind, Session: sess, Nanos: d.Nanoseconds(), Failed: err != nil})
		if cal != nil {
			r.Calib = append(r.Calib, cal.sample())
		}
		return kind, err == nil
	}
	as := func(kind opKind, fn func() error) func() (opKind, error) {
		return func() (opKind, error) { return kind, fn() }
	}

	for i, sp := range p.Sessions {
		if _, ok := timed(i, as(opCreate, func() error { return t.create(i, sp) })); !ok {
			continue
		}
		r.Visible[i] = committed
		finished := false
		// Labels+1 requests end a healthy session; the bound only stops a
		// misbehaving one.
		for n := 0; n <= sp.Labels+1 && !finished; n++ {
			var info stepInfo
			kind, ok := timed(i, func() (opKind, error) {
				var err error
				info, err = t.step(i)
				switch {
				case info.Done:
					return opTerminal, err
				case n == 0:
					return opFirst, err
				}
				return opStep, err
			})
			if !ok {
				break
			}
			if kind == opTerminal {
				finished = true
				break
			}
			digest(labels, uint64(i), uint64(info.Iteration), uint64(info.SelectedID), b2u(info.Positive))
			r.Visible[i] = committed
			steps++
			if w.Live && steps%appendEvery == 0 && appends < len(p.Appends) {
				batch := p.Appends[appends]
				appends++
				timed(i, as(opAppend, func() error {
					first, n, err := t.appendRows(batch)
					if err == nil {
						total = n
						digest(labels, uint64(first), uint64(n))
					}
					return err
				}))
				if appends%flushEvery == 0 {
					if err := t.flush(); err != nil && r.Err == nil {
						r.Err = fmt.Errorf("flush after append %d: %w", appends, err)
					}
					committed = total
				}
			}
		}
		if finished {
			timed(i, as(opResult, func() error {
				ids, err := t.result(i)
				r.Results[i] = ids
				digest(results, uint64(i), uint64(len(ids)))
				for _, id := range ids {
					digest(results, uint64(id))
				}
				return err
			}))
		}
		timed(i, as(opDelete, func() error { return t.remove(i) }))
	}
	r.Wall = time.Since(start)
	r.Steal = readSteal() - steal0
	r.LabelDigest, r.ResultDigest = labels.Sum64(), results.Sum64()
	r.TotalRows = total
	return r
}

func digest(h hash.Hash64, vals ...uint64) {
	var b [8]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// httpTarget is rung A and every untraced round: one keep-alive connection
// to the served Manager.
type httpTarget struct {
	url    string
	client *http.Client
	ids    []string
	// flushFn reaches the Manager's index directly (see target.flush).
	flushFn func() error
	// grants records each session's granted budget share; stepBytes sums
	// /step response bodies.
	grants    []int64
	stepBytes int64
}

func newHTTPTarget(s *service, sessions int) *httpTarget {
	return &httpTarget{
		url: s.url,
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConns: 1, MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1,
			DisableCompression: true,
		}},
		ids:     make([]string, sessions),
		grants:  make([]int64, sessions),
		flushFn: func() error { return s.m.Index().Flush(context.Background()) },
	}
}

func (t *httpTarget) close() { t.client.CloseIdleConnections() }

// do sends one request and reads the whole reply; a non-2xx status is an
// error.
func (t *httpTarget) do(method, path string, body []byte) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, t.url+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := t.client.Do(req)
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, nil
}

func (t *httpTarget) create(i int, p sessionPlan) error {
	data, err := t.do(http.MethodPost, "/v1/sessions", p.body)
	if err != nil {
		return err
	}
	var info server.SessionInfo
	if err := json.Unmarshal(data, &info); err != nil {
		return err
	}
	t.ids[i], t.grants[i] = info.ID, info.BudgetBytes
	return nil
}

func (t *httpTarget) step(i int) (stepInfo, error) {
	data, err := t.do(http.MethodPost, "/v1/sessions/"+t.ids[i]+"/step", nil)
	if err != nil {
		return stepInfo{}, err
	}
	t.stepBytes += int64(len(data))
	var resp server.StepResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		return stepInfo{}, err
	}
	return stepInfoOf(resp)
}

func stepInfoOf(resp server.StepResponse) (stepInfo, error) {
	if resp.Done {
		return stepInfo{Done: true}, nil
	}
	if resp.Degraded {
		return stepInfo{}, errors.New("step degraded")
	}
	it := resp.Iteration
	if it == nil {
		return stepInfo{}, errors.New("step reply carries no iteration")
	}
	return stepInfo{Iteration: it.Iteration, SelectedID: it.SelectedID, Positive: it.Label == "positive"}, nil
}

func (t *httpTarget) result(i int) ([]uint32, error) {
	data, err := t.do(http.MethodGet, "/v1/sessions/"+t.ids[i]+"/result", nil)
	if err != nil {
		return nil, err
	}
	var res server.ResultInfo
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, err
	}
	if !res.Done {
		return nil, errors.New("result of an unfinished session")
	}
	return res.Positive, nil
}

func (t *httpTarget) remove(i int) error {
	_, err := t.do(http.MethodDelete, "/v1/sessions/"+t.ids[i], nil)
	return err
}

func (t *httpTarget) appendRows(b appendBatch) (uint32, int, error) {
	data, err := t.do(http.MethodPost, "/v1/append", b.body)
	if err != nil {
		return 0, 0, err
	}
	var resp server.AppendResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		return 0, 0, err
	}
	if resp.Count != len(b.Rows) {
		return 0, 0, fmt.Errorf("append acknowledged %d of %d rows", resp.Count, len(b.Rows))
	}
	return resp.FirstID, resp.TotalRows, nil
}

func (t *httpTarget) flush() error { return t.flushFn() }
