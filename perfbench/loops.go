package main

import (
	"context"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"godisc/internal/obs"
)

// target is a running system under test: do sends one request for a
// point and returns true when it completed and passed the gate.
type target struct {
	do     func(ctx context.Context, p *point) bool
	tracer *obs.Tracer // non-nil on the traced system only
	close  func()
}

// send runs one request, inside a benchmark-side "bench.request" span
// when the target is traced.
func (t *target) send(p *point) bool {
	if t.tracer == nil {
		return t.do(context.Background(), p)
	}
	sp := t.tracer.StartSpan("bench.request", obs.A("point", p.label()))
	defer sp.End()
	return t.do(obs.ContextWithSpan(context.Background(), sp), p)
}

// closedLoop runs `clients` callers for dur, each sending its next
// request as soon as the previous one returns. Callers share one cursor
// over the deck, so the global request order follows it.
func closedLoop(t *target, pts []*point, d []int, clients int, dur time.Duration, ph *phase) {
	var next atomic.Int64
	stop := time.Now().Add(dur)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(stop) {
				p := pts[d[int(next.Add(1)-1)%len(d)]]
				t0 := time.Now()
				ok := t.send(p)
				ph.record(p.model, ms(time.Since(t0)), ok)
			}
		}()
	}
	wg.Wait()
}

// openLoopStats describes how well the open-loop generator kept to its
// schedule.
type openLoopStats struct {
	timerLag []float64     // ms a sender woke after a due time it waited for
	behind   time.Duration // latest send in the final tenth of the phase
	sent     int
}

// openLoop sends requests at seeded Poisson arrival times (rate per
// second) for dur over `senders` connections. Each request is timed from
// when it was due, so time spent waiting for a free connection counts.
func openLoop(t *target, pts []*point, d []int, seed uint64, rate float64, senders int, dur time.Duration, ph *phase) openLoopStats {
	r := rand.New(rand.NewPCG(seed, 0x5851f42d4c957f2d))
	var due []time.Duration
	for at := time.Duration(0); at < dur; {
		at += time.Duration(r.ExpFloat64() / rate * float64(time.Second))
		due = append(due, at)
	}
	var (
		next  atomic.Int64
		mu    sync.Mutex
		st    openLoopStats
		wg    sync.WaitGroup
		start = time.Now()
	)
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= len(due) || due[k] >= dur {
					return
				}
				at := start.Add(due[k])
				wait := time.Until(at)
				var lag float64
				if wait > 0 {
					time.Sleep(wait)
					lag = ms(time.Since(at))
				}
				late := time.Since(at)
				p := pts[d[k%len(d)]]
				ok := t.send(p)
				ph.record(p.model, ms(time.Since(at)), ok)
				mu.Lock()
				if wait > 0 {
					st.timerLag = append(st.timerLag, lag)
				}
				if due[k] >= dur*9/10 && late > st.behind {
					st.behind = late
				}
				st.sent++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return st
}
