// Cost- and deadline-aware admission: the governance half of the serving
// runtime. Plain slot/queue counting (PR 1) keeps the server from
// collapsing, but treats every request as equal and every deadline as
// achievable; under sustained overload that spends capacity on work that
// is doomed (deadlines that cannot be met) or expendable (best-effort
// traffic) while interactive requests starve. The admitter here keeps the
// slot/queue bounds and adds three policies:
//
//   - priority shedding: when the queue is full, an arriving request
//     evicts the youngest strictly-lower-priority waiter instead of being
//     rejected — Interactive > Batch > BestEffort;
//   - deadline infeasibility: a request whose remaining deadline is
//     provably below a moving estimate of queue wait + execution time is
//     rejected up front (ErrDeadlineInfeasible) instead of timing out
//     after consuming a slot;
//   - per-model quotas: optional caps on one model's queued+executing
//     occupancy, so a hot model cannot starve the rest.
//
// Rejection errors are preformatted at construction so the shed path
// stays O(1) alloc under overload (see BenchmarkQueueFullRejection).
package serve

import (
	"context"
	"fmt"
	"sync"
	"time"

	"godisc/internal/discerr"
)

// Priority orders requests for admission under overload: when the queue
// is full, lower-priority waiters are shed to admit higher-priority
// arrivals. The zero value is PriorityBatch, so callers that never set it
// get the middle of the lattice.
type Priority int8

const (
	// PriorityBestEffort is shed first under pressure.
	PriorityBestEffort Priority = -1
	// PriorityBatch is the default for requests that do not say.
	PriorityBatch Priority = 0
	// PriorityInteractive is shed last: user-facing traffic.
	PriorityInteractive Priority = 1
)

// String names the priority for logs and span attributes.
func (p Priority) String() string {
	switch {
	case p >= PriorityInteractive:
		return "interactive"
	case p <= PriorityBestEffort:
		return "best-effort"
	default:
		return "batch"
	}
}

// QueueDepthNone configures a server with no admission queue at all:
// requests arriving while every execution slot is busy are rejected
// immediately with ErrQueueFull. (Any negative QueueDepth means the same;
// this constant replaces the sign magic at call sites.)
const QueueDepthNone = -1

// latencyEWMA is a moving average of run wall time: seeded from the first
// sample, then smoothed with weight estAlpha. It does no locking of its
// own; the estimator and the watchdog each guard theirs.
type latencyEWMA struct {
	avg float64 // ns
	n   int64
}

const estAlpha = 0.2

func (l *latencyEWMA) observe(d time.Duration) {
	if l.n == 0 {
		l.avg = float64(d)
	} else {
		l.avg += estAlpha * (float64(d) - l.avg)
	}
	l.n++
}

// mean returns the average once at least minSamples have been folded in;
// ok is false before that (and for a nil receiver).
func (l *latencyEWMA) mean(minSamples int64) (ns float64, ok bool) {
	if l == nil || l.n < minSamples {
		return 0, false
	}
	return l.avg, true
}

// estimator keeps a moving estimate of per-request engine wall time, fed
// by successful compiled runs. The infeasibility check multiplies it out
// to "time until a new arrival would complete": its own execution plus
// the queue ahead of it drained MaxConcurrent-wide.
type estimator struct {
	mu  sync.Mutex
	lat latencyEWMA
}

const estMinSamples = 8

func (e *estimator) observe(d time.Duration) {
	e.mu.Lock()
	e.lat.observe(d)
	e.mu.Unlock()
}

// estimate predicts queue wait + execution for a request arriving with
// queueAhead waiters already queued and `slots` execution lanes. ok is
// false until enough samples have accumulated — the estimator refuses to
// reject anything on a cold start.
func (e *estimator) estimate(queueAhead, slots int) (time.Duration, bool) {
	e.mu.Lock()
	avg, ok := e.lat.mean(estMinSamples)
	e.mu.Unlock()
	if !ok {
		return 0, false
	}
	if slots < 1 {
		slots = 1
	}
	return time.Duration(avg + avg*float64(queueAhead+1)/float64(slots)), true
}

// execEstimate returns the moving single-run execution estimate, or 0
// until enough samples have accumulated — a cold estimator never stops a
// request from lingering in a batch window.
func (e *estimator) execEstimate() time.Duration {
	e.mu.Lock()
	avg, _ := e.lat.mean(estMinSamples)
	e.mu.Unlock()
	return time.Duration(avg)
}

// watchdog tracks per-(model@signature) engine wall latency and derives
// the hung-run cancellation limit: Multiple × the signature's moving
// average, floored so fast signatures aren't cancelled on scheduler
// noise. nil (or Multiple <= 0) disables the watchdog.
type watchdog struct {
	multiple float64
	floor    time.Duration

	mu   sync.Mutex
	sigs map[string]*latencyEWMA
}

const watchdogMinSamples = 4

func newWatchdog(multiple float64, floor time.Duration) *watchdog {
	if multiple <= 0 {
		return nil
	}
	if floor <= 0 {
		floor = 10 * time.Millisecond
	}
	return &watchdog{multiple: multiple, floor: floor, sigs: map[string]*latencyEWMA{}}
}

func (wd *watchdog) observe(key string, d time.Duration) {
	if wd == nil {
		return
	}
	wd.mu.Lock()
	sl := wd.sigs[key]
	if sl == nil {
		sl = &latencyEWMA{}
		wd.sigs[key] = sl
	}
	sl.observe(d)
	wd.mu.Unlock()
}

// limit returns the cancellation deadline for one run of key, once the
// signature has enough history to judge "abnormally slow".
func (wd *watchdog) limit(key string) (time.Duration, bool) {
	if wd == nil {
		return 0, false
	}
	wd.mu.Lock()
	avg, ok := wd.sigs[key].mean(watchdogMinSamples)
	wd.mu.Unlock()
	lim := time.Duration(wd.multiple * avg)
	if !ok || lim == 0 {
		return 0, false
	}
	if lim < wd.floor {
		lim = wd.floor
	}
	return lim, true
}

// waiter is one queued request.
type waiter struct {
	model string
	prio  Priority
	seq   uint64
	// ready delivers the admission outcome: nil = slot granted, non-nil =
	// shed. Buffered so a grantor/shedder never blocks on a waiter that is
	// concurrently cancelling.
	ready chan error
	// granted marks a slot handed to this waiter (set under admitter.mu);
	// a cancelling waiter that finds it set owns a slot and must pass it on.
	granted bool
}

// admitter owns the execution slots, the priority queue and the
// governance policies. Counters go through the shared collector so the
// Stats snapshot and /metrics stay one source of truth.
type admitter struct {
	maxSlots   int
	queueDepth int
	quotas     map[string]int
	est        *estimator
	stats      *collector

	// Preformatted rejections: built once, returned by value on the hot
	// shed path (O(1) alloc — guarded by TestQueueFullRejectionAllocs).
	errQueueFull  error
	errShed       error
	errInfeasible error
	errQuota      map[string]error

	mu        sync.Mutex
	slots     int            // free execution slots
	occupancy map[string]int // per-model queued+executing
	waiters   []*waiter
	seq       uint64
}

func newAdmitter(cfg Config, stats *collector) *admitter {
	a := &admitter{
		maxSlots:   cfg.MaxConcurrent,
		queueDepth: cfg.QueueDepth,
		quotas:     cfg.ModelQuotas,
		est:        &estimator{},
		stats:      stats,
		slots:      cfg.MaxConcurrent,
		occupancy:  map[string]int{},
		errQueueFull: fmt.Errorf("serve: %d executing, %d queued: %w",
			cfg.MaxConcurrent, cfg.QueueDepth, discerr.ErrQueueFull),
		errShed: fmt.Errorf("serve: shed for a higher-priority request (%d executing, %d queued): %w",
			cfg.MaxConcurrent, cfg.QueueDepth, discerr.ErrQueueFull),
		errInfeasible: fmt.Errorf("serve: remaining deadline below estimated queue+exec time: %w",
			discerr.ErrDeadlineInfeasible),
	}
	if len(cfg.ModelQuotas) > 0 {
		a.errQuota = make(map[string]error, len(cfg.ModelQuotas))
		for model, q := range cfg.ModelQuotas {
			a.errQuota[model] = fmt.Errorf("serve: model %q at quota %d: %w",
				model, q, discerr.ErrQuotaExceeded)
		}
	}
	return a
}

// admit acquires an execution slot for (model, prio), queueing up to
// QueueDepth waiters and applying quota, infeasibility and shedding
// policy. On success the returned release frees the slot (exactly once).
// Rejections are pre-counted into the collector by reason; context errors
// are the caller's to classify.
func (a *admitter) admit(ctx context.Context, model string, prio Priority) (func(), error) {
	return a.admitWith(ctx, model, prio, true)
}

// admitQuiet is admission for the batch runner: identical slot/queue/quota
// policy, but this caller's own rejections are not counted — a rejected
// batch hands its members back to the solo path, where each re-enters
// admission and is counted exactly once, as a real request. (Victims shed
// FOR the batch are still counted: they are real requests.)
func (a *admitter) admitQuiet(ctx context.Context, model string, prio Priority) (func(), error) {
	return a.admitWith(ctx, model, prio, false)
}

func (a *admitter) admitWith(ctx context.Context, model string, prio Priority, count bool) (func(), error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	a.mu.Lock()
	if q, ok := a.quotas[model]; ok && a.occupancy[model] >= q {
		a.mu.Unlock()
		if count {
			a.stats.quotaRejected()
		}
		return nil, a.errQuota[model]
	}
	if a.slots > 0 {
		a.slots--
		a.occupancy[model]++
		a.mu.Unlock()
		a.stats.running(+1)
		return func() { a.release(model) }, nil
	}
	// Every slot is busy: is the deadline even achievable from the back
	// of the queue?
	if dl, ok := ctx.Deadline(); ok {
		if eta, have := a.est.estimate(len(a.waiters), a.maxSlots); have && time.Until(dl) < eta {
			a.mu.Unlock()
			if count {
				a.stats.infeasibleRejected()
			}
			return nil, a.errInfeasible
		}
	}
	if len(a.waiters) >= a.queueDepth {
		v := a.victimLocked(prio)
		if v == nil {
			a.mu.Unlock()
			if count {
				a.stats.queueFullRejected()
			}
			return nil, a.errQueueFull
		}
		a.removeLocked(v)
		a.occupancy[v.model]--
		a.stats.dequeued()
		v.ready <- a.errShed
		a.stats.shed()
	}
	w := &waiter{model: model, prio: prio, seq: a.seq, ready: make(chan error, 1)}
	a.seq++
	a.waiters = append(a.waiters, w)
	a.occupancy[model]++
	// Gauge updates happen at the list mutation points, under a.mu, so the
	// observed queue depth can never exceed the configured bound.
	a.stats.enqueued()
	a.mu.Unlock()

	select {
	case err := <-w.ready:
		if err != nil {
			return nil, err
		}
		a.stats.running(+1)
		return func() { a.release(model) }, nil
	case <-ctx.Done():
		a.mu.Lock()
		granted := w.granted
		removed := false
		if !granted {
			removed = a.removeLocked(w)
			if removed {
				a.occupancy[model]--
				a.stats.dequeued()
			}
		}
		a.mu.Unlock()
		if granted {
			// A grant raced our cancellation: we own a slot we will never
			// use — hand it to the next waiter.
			a.releaseSlot(model)
			return nil, ctx.Err()
		}
		if !removed {
			// A shed raced our cancellation: the shedder already removed us
			// and counted the rejection — honor its resolution.
			return nil, <-w.ready
		}
		return nil, ctx.Err()
	}
}

// release frees one executing request's slot.
func (a *admitter) release(model string) {
	a.stats.running(-1)
	a.releaseSlot(model)
}

// releaseSlot returns a slot to the best waiter (highest priority, FIFO
// within a class) or to the free pool.
func (a *admitter) releaseSlot(model string) {
	a.mu.Lock()
	a.occupancy[model]--
	if w := a.bestLocked(); w != nil {
		a.removeLocked(w)
		a.stats.dequeued()
		w.granted = true
		w.ready <- nil
	} else {
		a.slots++
	}
	a.mu.Unlock()
}

// bestLocked picks the next waiter to run: highest priority, oldest first
// within it.
func (a *admitter) bestLocked() *waiter {
	var best *waiter
	for _, w := range a.waiters {
		if best == nil || w.prio > best.prio || (w.prio == best.prio && w.seq < best.seq) {
			best = w
		}
	}
	return best
}

// victimLocked picks the waiter to shed for an arrival at prio: the
// youngest waiter of the lowest priority strictly below prio (the one
// that has invested the least wait), or nil when no waiter outranks.
func (a *admitter) victimLocked(prio Priority) *waiter {
	var victim *waiter
	for _, w := range a.waiters {
		if w.prio >= prio {
			continue
		}
		if victim == nil || w.prio < victim.prio || (w.prio == victim.prio && w.seq > victim.seq) {
			victim = w
		}
	}
	return victim
}

// removeLocked deletes w from the waiter list, reporting whether it was
// still queued (false means a grant or shed already claimed it).
func (a *admitter) removeLocked(w *waiter) bool {
	for i, o := range a.waiters {
		if o == w {
			a.waiters = append(a.waiters[:i], a.waiters[i+1:]...)
			return true
		}
	}
	return false
}
