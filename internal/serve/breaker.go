package serve

import (
	"sync"
	"time"
)

// ProbeGate is the half-open discipline shared by the serve circuit
// breaker and the fleet's per-version health: once tripped, nothing is
// admitted until the cooldown has elapsed; after that at most one probe is
// in flight at a time, and a failed probe re-arms the cooldown. It does no
// locking of its own: the owner guards it with its own mutex.
type ProbeGate struct {
	cooldown  time.Duration
	trippedAt time.Time
	probing   bool
}

// NewProbeGate returns a gate whose probes wait cooldown after each trip.
func NewProbeGate(cooldown time.Duration) ProbeGate {
	return ProbeGate{cooldown: cooldown}
}

// Trip starts (or restarts) the cooldown and drops any in-flight probe.
func (g *ProbeGate) Trip(now time.Time) {
	g.trippedAt = now
	g.probing = false
}

// Admit reports whether a probe may run now: the cooldown has elapsed and
// no other probe is in flight. An admitted caller owns the probe slot
// until it calls Resolve or Release.
func (g *ProbeGate) Admit(now time.Time) bool {
	if g.probing || now.Sub(g.trippedAt) < g.cooldown {
		return false
	}
	g.probing = true
	return true
}

// Resolve ends the in-flight probe with a verdict: success frees the slot,
// failure re-arms the cooldown.
func (g *ProbeGate) Resolve(ok bool, now time.Time) {
	if !ok {
		g.Trip(now)
		return
	}
	g.probing = false
}

// Release frees the probe slot without a verdict — the probe ended before
// the engine said anything about its health — so the next Admit may probe
// at once.
func (g *ProbeGate) Release() { g.probing = false }

// breakerState is the classic circuit-breaker state machine.
type breakerState int

const (
	// breakerClosed: requests flow to the engine normally.
	breakerClosed breakerState = iota
	// breakerOpen: the engine is quarantined; requests are served by the
	// interpreter fallback without touching it until the cooldown elapses.
	breakerOpen
	// breakerHalfOpen: the cooldown elapsed; exactly one probe request is
	// let through. Success closes the breaker, failure reopens it.
	breakerHalfOpen
)

// breaker quarantines one (model, signature) engine after `threshold`
// consecutive failures. While open it short-circuits requests to the
// fallback path; after the gate's cooldown it half-opens and admits a
// single probe. This doubles as the negative cache for failed
// compilations: K requests that fail to compile open the breaker, and
// nobody re-attempts the compile until the TTL probe.
type breaker struct {
	threshold int

	mu          sync.Mutex
	state       breakerState
	consecutive int
	gate        ProbeGate
	probeID     uint64 // id of the most recently admitted probe
}

func newBreaker(threshold int, cooldown time.Duration) *breaker {
	return &breaker{threshold: threshold, gate: NewProbeGate(cooldown)}
}

// allow reports whether a request may use the engine now. In half-open
// state only one in-flight probe is admitted at a time; everyone else is
// short-circuited to fallback until the probe's verdict lands. probe is
// nonzero when this request is that probe: the caller must then end with
// success, failure or release(probe), or the breaker stays half-open
// with its probe slot taken.
func (b *breaker) allow(now time.Time) (ok bool, probe uint64) {
	if b == nil {
		return true, 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == breakerClosed {
		return true, 0
	}
	if !b.gate.Admit(now) {
		return false, 0
	}
	b.state = breakerHalfOpen
	b.probeID++
	return true, b.probeID
}

// success records an engine run that completed; it closes the breaker and
// resets the failure streak.
func (b *breaker) success() {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.state = breakerClosed
	b.consecutive = 0
	b.gate.Release()
	b.mu.Unlock()
}

// failure records an engine failure (compile error, kernel panic, or
// transient errors after retries were exhausted). It reports whether this
// failure transitioned the breaker to open — a failed half-open probe
// reopens immediately, a closed breaker opens at the threshold.
func (b *breaker) failure(now time.Time) (opened bool) {
	if b == nil {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.consecutive++
	if b.state == breakerHalfOpen || b.consecutive >= b.threshold {
		opened = b.state != breakerOpen
		b.state = breakerOpen
		b.gate.Trip(now)
	}
	return opened
}

// release frees the slot of a probe that ended without a verdict (the
// caller went away, its inputs were invalid, the memory budget shed it,
// or the engine was not ready yet). It is a no-op when probe is 0 or has
// already been resolved, so callers may defer it unconditionally.
func (b *breaker) release(probe uint64) {
	if b == nil || probe == 0 {
		return
	}
	b.mu.Lock()
	if b.state == breakerHalfOpen && b.probeID == probe {
		b.gate.Release()
	}
	b.mu.Unlock()
}
