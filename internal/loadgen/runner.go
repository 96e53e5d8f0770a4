// Package loadgen is a closed-loop load generator for uei-serve: fleets
// of simulated users drive the real HTTP/JSON session API through
// realistic exploration workflows (think time, mixed session lengths,
// early abandonment, zipfian popularity over named interest regions,
// optional live-append writers) while honoring the server's admission
// control. It is what the replay benchmark in benchmark/ does not do —
// many concurrent analysts, think time, backoff — and it reports through
// the shared summaries: latencies are obs.Samples, server-side
// attribution is obs.Analysis. Profiles are named, seeded, and
// reproducible: two runs with the same profile and seed produce
// identical session workflows and label sequences.
package loadgen

import (
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"github.com/uei-db/uei/internal/dataset"
)

// Options tunes a run without changing its workload semantics. Tests use
// the injection points to compress time.
type Options struct {
	// Sleep replaces time.Sleep for think times, stagger delays, and
	// backoff waits. nil: time.Sleep.
	Sleep func(time.Duration)
	// RetryScale multiplies Retry-After waits (tests compress time).
	RetryScale float64
	// MaxRetries bounds backoff retries per request (0: client default).
	MaxRetries int
	// ReadyTimeout bounds the /readyz wait before the run (0: 60s).
	ReadyTimeout time.Duration
}

// Result is everything a run produced: the aggregate summary plus the
// raw workflow records and trace ids for joining and debugging.
type Result struct {
	Summary  Summary
	Records  []SessionRecord
	TraceIDs []string
}

// Run executes the profile's fleet against the server at base and
// reports. It returns an error only for setup failures (unreachable or
// never-ready server, invalid profile); request errors during the run
// are counted in the summary instead — a load generator keeps the load
// on through failures.
func Run(base string, p Profile, opts Options) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	p = p.withDefaults()
	sleep := opts.Sleep
	if sleep == nil {
		sleep = time.Sleep
	}
	// One client for the whole fleet, with a connection per user.
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = p.Users + p.Writers
	hc := &http.Client{Transport: tr, Timeout: 60 * time.Second}

	probe := &Client{Base: base, HTTP: hc, Sleep: sleep}
	timeout := opts.ReadyTimeout
	if timeout == 0 {
		timeout = 60 * time.Second
	}
	health, err := probe.WaitReady(timeout)
	if err != nil {
		return nil, err
	}

	backoff := &BackoffStats{}
	var started, finished atomic.Int64
	drainAfter := int64(p.Users) / 20 // >5% finished ends the steady window
	phase := func() string {
		if started.Load() < int64(p.Users) {
			return PhaseRampUp
		}
		if finished.Load() > drainAfter {
			return PhaseRampDown
		}
		return PhaseSteady
	}

	users := make([]*user, p.Users)
	for i := range users {
		c := &Client{
			Base:       base,
			HTTP:       hc,
			Sleep:      sleep,
			RetryScale: opts.RetryScale,
			MaxRetries: opts.MaxRetries,
			Stats:      backoff,
		}
		users[i] = newUser(p, i, c, newMetrics(), phase, sleep)
	}

	t0 := time.Now()
	var wg sync.WaitGroup
	for i, u := range users {
		wg.Add(1)
		go func(i int, u *user) {
			defer wg.Done()
			if p.RampUp > 0 && p.Users > 1 {
				sleep(time.Duration(int64(p.RampUp) * int64(i) / int64(p.Users)))
			}
			started.Add(1)
			u.run()
			finished.Add(1)
		}(i, u)
	}

	// Writers append rows alongside the fleet until every user is done.
	// Rows are drawn from the interior of the server's reported domain
	// bounds (a 1% margin keeps them inside the live store's append
	// validation even at the edges), falling back to the sky domain when
	// the server predates the bounds report.
	lo, hi := health.BoundsMin, health.BoundsMax
	if len(lo) == 0 || len(hi) == 0 || len(lo) != len(hi) {
		box := dataset.SkyBounds()
		lo, hi = box.Min, box.Max
	}
	usersDone := make(chan struct{})
	var writerAppends, writerRows, writerErrors atomic.Int64
	var writerErrMu sync.Mutex
	var writerLastErr string
	var wwg sync.WaitGroup
	for w := 0; w < p.Writers; w++ {
		wwg.Add(1)
		go func(w int) {
			defer wwg.Done()
			c := &Client{Base: base, HTTP: hc, Sleep: sleep, RetryScale: opts.RetryScale, MaxRetries: opts.MaxRetries, Stats: backoff}
			c.Jitter = rand.New(rand.NewSource(p.Seed + 900001 + int64(w)))
			rng := rand.New(rand.NewSource(p.Seed + 800001 + int64(w)))
			for {
				select {
				case <-usersDone:
					return
				default:
				}
				rows := make([][]float64, p.WriteBatch)
				for r := range rows {
					row := make([]float64, len(lo))
					for j := range row {
						span := hi[j] - lo[j]
						row[j] = lo[j] + (0.01+0.98*rng.Float64())*span
					}
					rows[r] = row
				}
				if _, err := c.Append(rows); err != nil {
					writerErrors.Add(1)
					writerErrMu.Lock()
					writerLastErr = err.Error()
					writerErrMu.Unlock()
				} else {
					writerAppends.Add(1)
					writerRows.Add(int64(len(rows)))
				}
				sleep(time.Duration(p.WriteInterval))
			}
		}(w)
	}

	wg.Wait()
	close(usersDone)
	wwg.Wait()
	wall := time.Since(t0)

	// Merge per-user state in user order so records and digests are
	// deterministic.
	met := newMetrics()
	res := &Result{}
	for _, u := range users {
		met.merge(u.met)
		res.Records = append(res.Records, u.records...)
		res.TraceIDs = append(res.TraceIDs, u.traceIDs...)
	}
	res.Summary = summarize(p, met, backoff, res.Records, wall)
	res.Summary.Server = ServerInfo{
		Rows:   health.Rows,
		Shards: health.Shards,
	}
	res.Summary.Writers = WriterStats{
		Appends:   writerAppends.Load(),
		Rows:      writerRows.Load(),
		Errors:    writerErrors.Load(),
		LastError: writerLastErr,
	}
	return res, nil
}
