// Per-version health: a three-state lattice driven by an error-rate EWMA
// over the serve layer's per-request outcome events.
//
//	HEALTHY ──(EWMA > MaxErrorRate)──▶ DEGRADED ──(rollback)──▶ QUARANTINED
//	   ▲            │                                  │
//	   └─(EWMA ≤ MaxErrorRate/2)◀──────────────────────┘
//	                 (half-open probe success → DEGRADED)
//
// Only engine-class failures feed the EWMA (see healthRelevant): a
// hostile client's 4xx and the server's own load shedding must never
// count against a model version. Recovery from QUARANTINED goes through
// the serve layer's ProbeGate, the breaker's half-open discipline: after a
// cooldown one explicit-version probe request is admitted; success
// re-opens the version as DEGRADED, failure restarts the cooldown.
package fleet

import (
	"errors"
	"time"

	"godisc/internal/discerr"
	"godisc/internal/serve"
)

// Health lattice values, ordered by severity. The numeric value is what
// the godisc_fleet_version_health gauge exports.
const (
	HealthHealthy     = "HEALTHY"
	HealthDegraded    = "DEGRADED"
	HealthQuarantined = "QUARANTINED"
)

// healthValue maps a lattice state to its gauge value.
func healthValue(h string) float64 {
	switch h {
	case HealthDegraded:
		return 1
	case HealthQuarantined:
		return 2
	}
	return 0
}

// healthTracker is one version's health state machine. All fields are
// guarded by Fleet.mu — the fleet serializes every observation.
type healthTracker struct {
	alpha      float64 // EWMA smoothing factor
	maxRate    float64 // error-rate threshold for degradation
	minSamples int     // observations before the EWMA is judged

	state   string
	ewma    float64
	samples int
	gate    serve.ProbeGate // quarantine → half-open probe recovery
}

func newHealthTracker(cfg RolloutConfig) *healthTracker {
	return &healthTracker{
		alpha:      cfg.EWMAAlpha,
		maxRate:    cfg.MaxErrorRate,
		minSamples: cfg.MinSamples,
		state:      HealthHealthy,
		gate:       serve.NewProbeGate(cfg.ProbeCooldown),
	}
}

// observe folds one request outcome into the EWMA and walks the
// HEALTHY↔DEGRADED edge (QUARANTINED only moves via quarantine/probe).
// Recovery uses half the degradation threshold as hysteresis so the
// state does not flap around the boundary.
func (h *healthTracker) observe(failed bool) {
	x := 0.0
	if failed {
		x = 1.0
	}
	h.ewma = h.alpha*x + (1-h.alpha)*h.ewma
	h.samples++
	if h.state == HealthQuarantined || h.samples < h.minSamples {
		return
	}
	switch {
	case h.state == HealthHealthy && h.ewma > h.maxRate:
		h.state = HealthDegraded
	case h.state == HealthDegraded && h.ewma <= h.maxRate/2:
		h.state = HealthHealthy
	}
}

// unhealthy reports whether the judged EWMA exceeds the threshold.
func (h *healthTracker) unhealthy() bool {
	return h.samples >= h.minSamples && h.ewma > h.maxRate
}

// quarantine drops the version to QUARANTINED and starts the probe
// cooldown clock.
func (h *healthTracker) quarantine(now time.Time) {
	h.state = HealthQuarantined
	h.gate.Trip(now)
}

// allowProbe reports whether a quarantined version may serve one
// half-open probe request now — at most one in flight, only after the
// cooldown.
func (h *healthTracker) allowProbe(now time.Time) bool {
	return h.state == HealthQuarantined && h.gate.Admit(now)
}

// probeResult resolves the in-flight half-open probe: success promotes
// the version to DEGRADED with a fresh EWMA window (healthy traffic
// walks it back to HEALTHY), failure restarts the cooldown.
func (h *healthTracker) probeResult(ok bool, now time.Time) {
	h.gate.Resolve(ok, now)
	if ok {
		h.state = HealthDegraded
		h.ewma = 0
		h.samples = 0
	}
}

// healthRelevant reports whether err is an engine-class failure — the
// only kind that counts against a model version's health. Client errors
// (shapes, dtypes, malformed bodies) and the server's own load shedding
// (queue, quota, budget, deadline, shutdown) say nothing about the
// version; neither do context outcomes (the caller went away).
func healthRelevant(err error) bool {
	if err == nil {
		return false
	}
	for _, s := range []error{
		discerr.ErrCompileFailed,
		discerr.ErrKernelPanic,
		discerr.ErrHungRequest,
		discerr.ErrEngineQuarantined,
		discerr.ErrTransient,
	} {
		if errors.Is(err, s) {
			return true
		}
	}
	return false
}
