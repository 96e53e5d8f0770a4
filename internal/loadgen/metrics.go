package loadgen

import "github.com/uei-db/uei/internal/obs"

// Phase names for per-phase attribution. A step belongs to the phase the
// fleet was in when it completed: ramp_up while users are still being
// staggered in, steady once the whole fleet is active, ramp_down once
// more than 5% of the users have finished for good (a tolerance that
// keeps one early abandoner from ending the steady window).
const (
	PhaseRampUp   = "ramp_up"
	PhaseSteady   = "steady"
	PhaseRampDown = "ramp_down"
)

// phaseOrder fixes report ordering.
var phaseOrder = []string{PhaseRampUp, PhaseSteady, PhaseRampDown}

// opStats accumulates one operation type's latency samples and error
// count. Not goroutine-safe: each user owns one set, merged by the runner.
type opStats struct {
	lat    obs.Samples
	errors int64
}

// fail records a request that errored out (after backoff exhaustion or a
// hard failure). Failed requests have no latency sample and are never
// SLO-compliant — they are errors, tracked on their own axis.
func (o *opStats) fail() { o.errors++ }

// merge folds another opStats in.
func (o *opStats) merge(x *opStats) {
	o.lat.Merge(&x.lat)
	o.errors += x.errors
}

// metrics is one user's (or the merged fleet's) measurement state.
type metrics struct {
	create opStats
	result opStats
	steps  map[string]*opStats
}

func newMetrics() *metrics {
	m := &metrics{steps: map[string]*opStats{}}
	for _, ph := range phaseOrder {
		m.steps[ph] = &opStats{}
	}
	return m
}

// merge folds another user's metrics in.
func (m *metrics) merge(x *metrics) {
	m.create.merge(&x.create)
	m.result.merge(&x.result)
	for ph, s := range x.steps {
		m.steps[ph].merge(s)
	}
}

// allSteps returns the phase-merged step stats.
func (m *metrics) allSteps() *opStats {
	var all opStats
	for _, ph := range phaseOrder {
		all.merge(m.steps[ph])
	}
	return &all
}
