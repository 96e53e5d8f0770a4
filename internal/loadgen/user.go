package loadgen

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/uei-db/uei/internal/server"
)

// sessionPlan is one session's pre-drawn workflow choices. Drawing the
// whole plan from the user's workflow rng before any request is issued
// makes runs reproducible: timing, retries, and server latency cannot
// perturb which region a user explores or when it walks away.
type sessionPlan struct {
	region       int
	maxLabels    int
	abandonAfter int // successful steps before quitting; 0 = run to done
}

// SessionRecord is one session's observed workflow — the reproducibility
// unit. Two same-seed runs must produce identical records (modulo the
// server-assigned session id, which is excluded from the digest).
type SessionRecord struct {
	User         int      `json:"user"`
	Session      int      `json:"session"`
	Region       string   `json:"region"`
	MaxLabels    int      `json:"max_labels"`
	AbandonAfter int      `json:"abandon_after,omitempty"`
	Labels       []string `json:"labels"`
	Steps        int      `json:"steps"`
	Done         bool     `json:"done"`
	Abandoned    bool     `json:"abandoned"`
	Degraded     int      `json:"degraded,omitempty"`
	Positives    int      `json:"positives,omitempty"`
	Error        string   `json:"error,omitempty"`
}

// user is one simulated explorer: a private client, private rngs, and
// private metrics, merged by the runner afterwards.
type user struct {
	idx     int
	profile Profile
	client  *Client
	picker  *regionPicker
	// workflow draws plans; think draws pauses. Separate streams keep
	// the plan sequence independent of how many steps each session took.
	workflow *rand.Rand
	think    *rand.Rand
	sleep    func(time.Duration)
	met      *metrics
	phase    func() string
	traceIDs []string
	records  []SessionRecord
}

// newUser derives the user's deterministic rng streams from the profile
// seed and user index.
func newUser(p Profile, idx int, c *Client, met *metrics, phase func() string, sleep func(time.Duration)) *user {
	base := p.Seed + int64(idx)*1000003
	workflow := rand.New(rand.NewSource(base + 1))
	u := &user{
		idx:      idx,
		profile:  p,
		client:   c,
		workflow: workflow,
		think:    rand.New(rand.NewSource(base + 2)),
		sleep:    sleep,
		met:      met,
		phase:    phase,
	}
	u.picker = newRegionPicker(len(p.Regions), p.RegionZipfS, workflow)
	c.Jitter = rand.New(rand.NewSource(base + 3))
	return u
}

// plan draws the next session's workflow choices.
func (u *user) plan() sessionPlan {
	pl := sessionPlan{region: u.picker.pick()}
	p := u.profile
	pl.maxLabels = p.MinLabels
	if p.MaxLabels > p.MinLabels {
		pl.maxLabels += u.workflow.Intn(p.MaxLabels - p.MinLabels + 1)
	}
	if p.AbandonProb > 0 && u.workflow.Float64() < p.AbandonProb {
		pl.abandonAfter = 1 + u.workflow.Intn(pl.maxLabels)
	}
	return pl
}

// sessionSeed derives the server-side sampling seed for (user, session):
// unique per pair, stable across runs.
func (u *user) sessionSeed(sess int) int64 {
	return u.profile.Seed*1000003 + int64(u.idx)*10007 + int64(sess) + 1
}

// run executes every planned session back to back. Request errors are
// recorded, never fatal: a load generator's job is to keep the load on.
func (u *user) run() {
	for sess := 0; sess < u.profile.SessionsPerUser; sess++ {
		u.records = append(u.records, u.runSession(sess, u.plan()))
	}
}

// runSession drives one session: create, step/think until done (or the
// planned abandonment), fetch the result, delete.
func (u *user) runSession(sess int, pl sessionPlan) SessionRecord {
	p := u.profile
	region := p.Regions[pl.region]
	rec := SessionRecord{
		User:         u.idx,
		Session:      sess,
		Region:       region.Name,
		MaxLabels:    pl.maxLabels,
		AbandonAfter: pl.abandonAfter,
	}
	osp := region.Oracle
	spec := server.SessionSpec{
		Name:       fmt.Sprintf("loadgen-u%d-s%d", u.idx, sess),
		MaxLabels:  pl.maxLabels,
		Seed:       u.sessionSeed(sess),
		SampleSize: p.SampleSize,
		BatchSize:  p.BatchSize,
		Oracle:     &osp,
	}

	info, lat, err := u.client.CreateSession(spec)
	if err != nil {
		rec.Error = err.Error()
		u.met.create.fail()
		return rec
	}
	u.met.create.lat.Observe(lat)

	for {
		resp, lat, err := u.client.Step(info.ID)
		if err != nil {
			rec.Error = err.Error()
			u.met.steps[u.phase()].fail()
			break
		}
		rec.Steps++
		u.met.steps[u.phase()].lat.Observe(lat)
		if resp.TraceID != "" {
			u.traceIDs = append(u.traceIDs, resp.TraceID)
		}
		if resp.Iteration != nil {
			rec.Labels = append(rec.Labels, resp.Iteration.Label)
			if resp.Iteration.Degraded {
				rec.Degraded++
			}
		}
		if resp.Done {
			rec.Done = true
			rec.Positives = resp.Positives
			break
		}
		if pl.abandonAfter > 0 && rec.Steps >= pl.abandonAfter {
			rec.Abandoned = true
			break
		}
		if d := p.Think.Sample(u.think); d > 0 {
			u.sleep(d)
		}
	}

	if rec.Done {
		if res, lat, err := u.client.Result(info.ID); err == nil {
			u.met.result.lat.Observe(lat)
			rec.Positives = len(res.Positive)
		} else {
			rec.Error = err.Error()
			u.met.result.fail()
		}
	}
	if err := u.client.Delete(info.ID); err != nil && rec.Error == "" {
		rec.Error = err.Error()
	}
	return rec
}
