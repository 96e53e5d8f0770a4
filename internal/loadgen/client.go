package loadgen

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"github.com/uei-db/uei/internal/server"
)

// BackoffStats counts the backpressure a client absorbed. Rejected
// requests are never latency samples or SLO violations — they are the
// server saying "not now", and a well-behaved client's only job is to
// wait as told. The counters are atomics so user goroutines share one
// struct.
type BackoffStats struct {
	// Rejects429 counts 429 Too Many Requests answers (per-session step
	// queue full).
	Rejects429 atomic.Int64
	// Rejects503 counts 503 Service Unavailable answers (admission
	// saturated, draining, or budget pressure).
	Rejects503 atomic.Int64
	// WaitNanos sums the time spent sleeping on Retry-After hints.
	WaitNanos atomic.Int64
	// Exhausted counts requests that ran out of retries and surfaced an
	// error to the workflow.
	Exhausted atomic.Int64
}

// Client is a loadgen-side handle on one uei-serve instance. It retries
// backpressure answers (429/503) honoring the server's Retry-After hint
// with multiplicative jitter, and records every successful call's
// latency — the latency of the attempt that succeeded, not of the
// backoff waits around it.
type Client struct {
	// Base is the server root, e.g. "http://127.0.0.1:8080".
	Base string
	// HTTP is the underlying client (http.DefaultClient when nil).
	HTTP *http.Client
	// MaxRetries bounds backoff retries per request (default 8).
	MaxRetries int
	// RetryScale multiplies Retry-After waits; tests compress time with
	// small values. Zero means 1.
	RetryScale float64
	// Sleep is the wait function, injectable for tests. nil: time.Sleep.
	Sleep func(time.Duration)
	// Jitter draws the backoff jitter factor in [1, 1.5); nil disables
	// jitter. It must be goroutine-private (each user owns a Client).
	Jitter *rand.Rand
	// Stats, when set, accumulates backoff counters (shared, atomic).
	Stats *BackoffStats
}

// retryAfterOf parses the Retry-After hint, defaulting to 1s.
func retryAfterOf(resp *http.Response) time.Duration {
	if s := resp.Header.Get("Retry-After"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n >= 0 {
			return time.Duration(n) * time.Second
		}
	}
	return time.Second
}

// do issues one JSON request with backoff, decodes the answer into out
// (unless nil), and returns the HTTP status plus the successful
// attempt's latency.
func (c *Client) do(method, path string, in, out any) (int, time.Duration, error) {
	hc := c.HTTP
	if hc == nil {
		hc = http.DefaultClient
	}
	sleep := c.Sleep
	if sleep == nil {
		sleep = time.Sleep
	}
	scale := c.RetryScale
	if scale == 0 {
		scale = 1
	}
	retries := c.MaxRetries
	if retries == 0 {
		retries = 8
	}

	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return 0, 0, fmt.Errorf("loadgen: encode %s %s: %w", method, path, err)
		}
	}

	for attempt := 0; ; attempt++ {
		req, err := http.NewRequest(method, c.Base+path, bytes.NewReader(body))
		if err != nil {
			return 0, 0, fmt.Errorf("loadgen: %s %s: %w", method, path, err)
		}
		if in != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		t0 := time.Now()
		resp, err := hc.Do(req)
		lat := time.Since(t0)
		if err != nil {
			return 0, 0, fmt.Errorf("loadgen: %s %s: %w", method, path, err)
		}
		respBody, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
		resp.Body.Close()
		if err != nil {
			return resp.StatusCode, 0, fmt.Errorf("loadgen: %s %s: read body: %w", method, path, err)
		}

		if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
			if c.Stats != nil {
				if resp.StatusCode == http.StatusTooManyRequests {
					c.Stats.Rejects429.Add(1)
				} else {
					c.Stats.Rejects503.Add(1)
				}
			}
			if attempt >= retries {
				if c.Stats != nil {
					c.Stats.Exhausted.Add(1)
				}
				return resp.StatusCode, 0, fmt.Errorf("loadgen: %s %s: %d after %d backoffs: %s",
					method, path, resp.StatusCode, attempt, errorText(respBody))
			}
			wait := time.Duration(float64(retryAfterOf(resp)) * scale)
			if c.Jitter != nil {
				wait = time.Duration(float64(wait) * (1 + 0.5*c.Jitter.Float64()))
			}
			if c.Stats != nil {
				c.Stats.WaitNanos.Add(int64(wait))
			}
			sleep(wait)
			continue
		}
		if resp.StatusCode >= 400 {
			return resp.StatusCode, lat, fmt.Errorf("loadgen: %s %s: %d: %s", method, path, resp.StatusCode, errorText(respBody))
		}
		if out != nil && len(respBody) > 0 {
			if err := json.Unmarshal(respBody, out); err != nil {
				return resp.StatusCode, lat, fmt.Errorf("loadgen: %s %s: decode: %w", method, path, err)
			}
		}
		return resp.StatusCode, lat, nil
	}
}

// errorText extracts the server's {"error": ...} message, falling back
// to the raw body.
func errorText(body []byte) string {
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		return e.Error
	}
	if len(body) > 200 {
		body = body[:200]
	}
	return string(bytes.TrimSpace(body))
}

// CreateSession creates an exploration session.
func (c *Client) CreateSession(spec server.SessionSpec) (server.SessionInfo, time.Duration, error) {
	var info server.SessionInfo
	_, lat, err := c.do(http.MethodPost, "/v1/sessions", spec, &info)
	return info, lat, err
}

// Step advances a session one interaction.
func (c *Client) Step(id string) (server.StepResponse, time.Duration, error) {
	var resp server.StepResponse
	_, lat, err := c.do(http.MethodPost, "/v1/sessions/"+id+"/step", server.StepRequest{}, &resp)
	return resp, lat, err
}

// Result fetches the session's retrieved result set.
func (c *Client) Result(id string) (server.ResultInfo, time.Duration, error) {
	var res server.ResultInfo
	_, lat, err := c.do(http.MethodGet, "/v1/sessions/"+id+"/result", nil, &res)
	return res, lat, err
}

// Delete removes a session.
func (c *Client) Delete(id string) error {
	_, _, err := c.do(http.MethodDelete, "/v1/sessions/"+id, nil, nil)
	return err
}

// Append ingests rows into a live store.
func (c *Client) Append(rows [][]float64) (server.AppendResponse, error) {
	var resp server.AppendResponse
	_, _, err := c.do(http.MethodPost, "/v1/append", server.AppendRequest{Rows: rows}, &resp)
	return resp, err
}

// WaitReady polls GET /readyz until the server reports ready or the
// deadline passes — the supported alternative to sleeping after boot —
// and returns the ready server's health snapshot.
func (c *Client) WaitReady(timeout time.Duration) (server.HealthInfo, error) {
	hc := c.HTTP
	if hc == nil {
		hc = http.DefaultClient
	}
	sleep := c.Sleep
	if sleep == nil {
		sleep = time.Sleep
	}
	deadline := time.Now().Add(timeout)
	var lastErr error
	for {
		resp, err := hc.Get(c.Base + "/readyz")
		if err == nil {
			var info server.HealthInfo
			decErr := json.NewDecoder(resp.Body).Decode(&info)
			resp.Body.Close()
			if decErr == nil && resp.StatusCode == http.StatusOK {
				return info, nil
			}
			if decErr != nil {
				lastErr = decErr
			} else {
				lastErr = fmt.Errorf("readyz: %d (%s)", resp.StatusCode, info.Status)
			}
		} else {
			lastErr = err
		}
		if time.Now().After(deadline) {
			return server.HealthInfo{}, fmt.Errorf("loadgen: server not ready after %v: %v", timeout, lastErr)
		}
		sleep(50 * time.Millisecond)
	}
}
