package exec

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"godisc/internal/obs"
	"godisc/internal/ral"
	"godisc/internal/tensor"
)

// runCtx is the mutable state of ONE invocation of an Executable. Every
// piece of per-run state — the value environment, pooled-buffer ownership,
// buffer reference counts, the profiler, the pool session — lives here and
// nowhere on the Executable, so one compiled engine can serve N goroutines
// concurrently: Run simply builds a fresh runCtx per call. The Executable
// itself is immutable after Compile (units, task DAG, shape program,
// constants, initial refcounts), and the shared Pool is internally locked.
//
// Values live in slot-indexed slices rather than maps so that concurrent
// workers of a parallel run never touch shared map internals: each slot is
// written by exactly one producer task, read by consumers that the DAG
// orders after it (happens-before through the scheduler's queue lock), and
// freed by whichever consumer drops its reference count to zero.
type runCtx struct {
	exe  *Executable
	ctx  context.Context
	done <-chan struct{}
	// vals is the evaluated shape-program slot array for this call's
	// concrete input shapes.
	vals []int64
	// env holds the flat buffer of every materialized value, by slot.
	env [][]float32
	// owned marks env slots whose buffers came from the pool and are still
	// held by this run.
	owned []bool
	// refs counts the remaining consumers of each slot; the consumer that
	// takes it to zero returns the buffer to the pool (liveness under
	// out-of-order completion).
	refs []int32
	// sess is this run's pool session (per-run accounting over the
	// shared pool).
	sess *ral.Session
	// prof receives this run's simulated profile. Every launch charges
	// it in place under mu, from whichever executor goroutine ran it.
	mu   sync.Mutex
	prof *ral.Profiler
	// span is this run's `exec` trace span (nil when observability is
	// off — the one branch executors pay per instrumentation point).
	span *obs.Span
}

// newRunCtx opens the per-call state for one invocation: parameters are
// flattened eagerly into their slots (so no two workers race to flatten
// one lazily) and constants are installed from the compile-time buffers.
func (e *Executable) newRunCtx(ctx context.Context, inputs []*tensor.Tensor, vals []int64) (*runCtx, error) {
	rc := &runCtx{
		exe:   e,
		ctx:   ctx,
		done:  ctx.Done(),
		vals:  vals,
		env:   make([][]float32, e.nSlots),
		owned: make([]bool, e.nSlots),
		refs:  make([]int32, e.nSlots),
		sess:  e.Pool.Session(),
		prof:  ral.NewProfiler(),
	}
	copy(rc.refs, e.refs0)
	for _, p := range e.paramRefs {
		buf, err := flatten(inputs[p.param])
		if err != nil {
			return nil, fmt.Errorf("exec: parameter %d: %w", p.param, err)
		}
		rc.env[p.slot] = buf
	}
	for _, c := range e.constRefs {
		rc.env[c.slot] = c.buf
	}
	return rc, nil
}

// cancelled reports the context error once the context is done. The
// sequential path checks it between units; the parallel scheduler checks
// it at partition granularity, so deadline/cancel takes effect mid-kernel.
func (rc *runCtx) cancelled() error {
	if rc.done == nil {
		return nil
	}
	select {
	case <-rc.done:
		return rc.ctx.Err()
	default:
		return nil
	}
}

// bufOf returns the buffer of slot s, which the task DAG guarantees was
// produced (or prefilled) before any consumer runs.
func (rc *runCtx) bufOf(s int) ([]float32, error) {
	if b := rc.env[s]; b != nil {
		return b, nil
	}
	return nil, fmt.Errorf("exec: slot %d not yet computed", s)
}

// setOwned installs a pooled buffer as slot s's value. Only the single
// producer task of s calls this.
func (rc *runCtx) setOwned(s int, buf []float32) {
	rc.env[s] = buf
	rc.owned[s] = true
}

// decRef drops one consumer reference from slot s; the reference that hits
// zero returns the pooled buffer (if any). References are counted so that
// tasks may complete out of order: whoever finishes last frees.
func (rc *runCtx) decRef(s int) {
	if atomic.AddInt32(&rc.refs[s], -1) != 0 {
		return
	}
	if rc.owned[s] {
		rc.sess.Put(rc.env[s])
		rc.owned[s] = false
		rc.env[s] = nil
	}
}

// getScratch appends the launch's scratch rows (ScratchRows zeroed pooled
// rows of rowLen) to bufs. Scratch is indexed per row, so every concurrent
// run of a program needs its own rows and its own bufs copy to append to.
// On failure the rows drawn so far go back to the pool.
func (rc *runCtx) getScratch(ln *launch, bufs [][]float32) ([][]float32, error) {
	n := len(bufs)
	for i := 0; i < ln.k.ScratchRows; i++ {
		sc, err := rc.sess.Get(ln.rowLen)
		if err != nil {
			rc.putScratch(bufs[n:])
			return nil, err
		}
		bufs = append(bufs, sc)
	}
	return bufs, nil
}

// putScratch returns scratch rows drawn by getScratch.
func (rc *runCtx) putScratch(rows [][]float32) {
	for _, sc := range rows {
		rc.sess.Put(sc)
	}
}

// release returns every pooled buffer this run still holds. It runs on
// every exit path (including cancellation and kernel errors), after all
// workers have stopped, so one failed request can never leak pool memory
// from under concurrent ones.
func (rc *runCtx) release() {
	for s, own := range rc.owned {
		if own {
			rc.sess.Put(rc.env[s])
			rc.owned[s] = false
			rc.env[s] = nil
		}
	}
}
