package server

import "net/http"

// HealthInfo is the body of GET /healthz and /readyz: a point-in-time
// snapshot of the serving state that clients and CI use to wait for
// readiness instead of sleeping, and operators use to watch drains.
type HealthInfo struct {
	// Status is "ok" when the server accepts new work and "draining"
	// once Close has begun evicting sessions.
	Status string `json:"status"`
	// Draining mirrors Status for programmatic checks.
	Draining bool `json:"draining"`
	// LiveSessions is the number of sessions currently holding a live
	// slot (in memory, counted against MaxSessions). Evicted sessions
	// are excluded.
	LiveSessions int `json:"live_sessions"`
	// MaxSessions is the admission cap LiveSessions is bounded by.
	MaxSessions int `json:"max_sessions"`
	// Sessions is the total session count including evicted ones.
	Sessions int `json:"sessions"`
	// Epoch is the committed live-snapshot epoch, zero when the store
	// has no live write path.
	Epoch uint64 `json:"epoch,omitempty"`
	// Rows is the number of indexed tuples in the current snapshot.
	Rows int `json:"rows"`
	// Shards is the shard fan-out, zero for unsharded stores.
	Shards int `json:"shards,omitempty"`
}

// Health gathers a HealthInfo snapshot. Callers treat it as advisory:
// the counters can change the moment the locks are released.
func (m *Manager) Health() HealthInfo {
	info := HealthInfo{
		Status:      "ok",
		Draining:    m.draining.Load(),
		MaxSessions: m.cfg.MaxSessions,
		Rows:        m.idx.RowCount(),
	}
	if info.Draining {
		info.Status = "draining"
	}
	if m.idx.Sharded() {
		info.Shards = m.idx.NumShards()
	}
	if m.idx.Live() != nil {
		info.Epoch = m.idx.LiveEpoch()
	}
	info.LiveSessions = m.arb.Sessions()
	m.mu.Lock()
	info.Sessions = len(m.sessions)
	m.mu.Unlock()
	return info
}

// handleHealth is liveness: it answers 200 with a HealthInfo body for as
// long as the process can serve HTTP at all, including while draining.
// Probes that should stop routing traffic belong on /readyz.
func (m *Manager) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, m.Health())
}

// handleReady is readiness: 200 with a HealthInfo body while the server
// admits new sessions, 503 with the same body once draining begins so
// load balancers and clients back off before hard errors start.
func (m *Manager) handleReady(w http.ResponseWriter, _ *http.Request) {
	info := m.Health()
	code := http.StatusOK
	if info.Draining {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, info)
}
