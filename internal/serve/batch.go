// Dynamic request batching: the admission-side coalescer that cashes in
// the compiler's symbolic batch dimension on the serving path. A compiled
// engine already accepts any batch size — the cache key is the *symbolic*
// signature — so N concurrent requests whose inputs agree on every
// non-batch dimension can be stacked along dim 0, run through the engine
// once, and scattered back as zero-copy row views. Per-kernel launch
// overhead, scheduling and admission are paid once per batch instead of
// once per request, which is the single biggest requests-per-second lever
// at saturation.
//
// Design points:
//
//   - Eligibility is decided per model by a conservative symbolic-shape
//     analysis (batchInfo): the leading dimension of every parameter must
//     be the same dynamic symbol, that symbol must appear in node shapes
//     only as dimension 0, carry no divisibility facts, and reach every
//     output at dimension 0. Models that fold the batch into derived dims
//     (reshapes, flattens) are served solo — correctness over coverage.
//   - Requests coalesce per (model@signature + concrete non-batch input
//     layout) key. A batch flushes when its stacked rows reach the
//     effective MaxBatchSize, when the linger window expires, or when a
//     joiner would overflow it.
//   - Deadlines are honoured at join time: a request never lingers past
//     the point its deadline becomes infeasible (slack below the moving
//     execution estimate plus margin goes solo; otherwise the linger is
//     clamped to the slack), and a member whose context expires mid-linger
//     abandons the batch and returns ctx.Err() — never silently late.
//   - Fairness: Interactive requests bypass the linger window entirely and
//     take the solo path; the batch admits at the highest priority among
//     its members, so coalesced Batch traffic cannot be starved by
//     BestEffort floods nor jump ahead of Interactive arrivals it doesn't
//     contain.
//   - Failure policy: the batch path delivers only successes. Any failure
//     — admission rejection, compile error, engine fault, quarantined
//     breaker, or a single-member flush — hands every member back to the
//     solo path, where the full resilience machinery (retries, breaker
//     accounting, watchdog, interpreter fallback) lives. This keeps the
//     stats taxonomy exact: no outcome is ever double-counted.
//   - Memory governance comes for free: the engine computes its footprint
//     from the concrete run dimensions, so the batched run reserves the
//     batched footprint against the shared ral.Governor.
package serve

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"godisc/internal/graph"
	"godisc/internal/obs"
	"godisc/internal/ral"
	"godisc/internal/symshape"
	"godisc/internal/tensor"
)

// lingerDefault is the linger window used when batching is enabled without
// an explicit MaxLinger.
const lingerDefault = 2 * time.Millisecond

// lingerSlackMargin scales the execution estimate when deciding whether a
// deadline leaves room to linger: slack = budget − estimate × margin.
const lingerSlackMargin = 1.25

// batchInfo is the cached result of the batchability analysis for one
// model: whether stacking along dim 0 is provably equivalent to running
// each request alone, and the symbolic cap on the stacked extent.
type batchInfo struct {
	ok     bool
	reason string // why the model is not batchable (spans, tests)
	// maxRows caps the stacked batch extent to the symbol's declared
	// upper bound (0 = unbounded).
	maxRows int
}

// analyzeBatchable decides whether a model may be served by stacking
// requests along dimension 0. The rules are deliberately conservative —
// every rejection is a model served correctly solo, every acceptance must
// be provably row-independent:
//
//   - every parameter has rank ≥ 1 and the same dynamic leading symbol B;
//   - B carries no divisibility facts (stacking two valid extents may
//     break divisibility the compiler specialised on);
//   - wherever B (or any derived dimension depending on it) appears in a
//     node shape, it is exactly B at index 0 — so no reshape folds the
//     batch into a fused dimension and no transpose moves it;
//   - every output has B at dimension 0, so scattering row ranges back to
//     members is well-defined.
func analyzeBatchable(g *graph.Graph) batchInfo {
	if g == nil || len(g.Params) == 0 {
		return batchInfo{reason: "no parameters"}
	}
	ctx := g.Ctx
	if g.Params[0].Shape.Rank() < 1 {
		return batchInfo{reason: "rank-0 parameter"}
	}
	batch := ctx.Root(g.Params[0].Shape[0])
	if ctx.IsStatic(batch) {
		return batchInfo{reason: "static leading dimension"}
	}
	if ctx.Divisor(batch) > 1 {
		return batchInfo{reason: "batch dimension carries divisibility facts"}
	}
	for _, p := range g.Params {
		if p.Shape.Rank() < 1 {
			return batchInfo{reason: "rank-0 parameter"}
		}
		if !ctx.Equal(p.Shape[0], batch) {
			return batchInfo{reason: "parameters disagree on the leading dimension"}
		}
	}

	// usesBatch reports whether a dimension is, or is derived from, the
	// batch symbol (product/sum/quotient/affine operands, recursively).
	memo := map[symshape.DimID]bool{}
	var usesBatch func(d symshape.DimID) bool
	usesBatch = func(d symshape.DimID) bool {
		r := ctx.Root(d)
		if v, ok := memo[r]; ok {
			return v
		}
		memo[r] = false // cut cycles conservatively inside the recursion
		use := r == batch
		if !use {
			for _, op := range ctx.Describe(r).Operands {
				if usesBatch(op) {
					use = true
					break
				}
			}
		}
		memo[r] = use
		return use
	}

	shapeUses := func(n *graph.Node) bool {
		for _, d := range n.Shape {
			if usesBatch(d) {
				return true
			}
		}
		return false
	}

	nodes := append(append([]*graph.Node(nil), g.Toposort()...), g.Params...)
	for _, n := range nodes {
		// Placement: a batch-derived dimension may appear only as the
		// batch symbol itself, at index 0. This rejects reshapes that fold
		// the batch into a product, transposes that move it, concats and
		// pads along it, and splits of it.
		for i, d := range n.Shape {
			if !usesBatch(d) {
				continue
			}
			if i != 0 || ctx.Root(d) != batch {
				return batchInfo{reason: fmt.Sprintf(
					"%s uses the batch dimension at index %d", n.Kind, i)}
			}
		}
		inBatched := false
		for _, in := range n.Inputs {
			if shapeUses(in) {
				inBatched = true
				break
			}
		}
		if !inBatched {
			continue
		}
		// A batched input must flow through to a batch-major result: an op
		// whose output loses the batch dimension (a reduction over axis 0,
		// a slice of it, a gather across it) mixes rows.
		if n.Shape.Rank() < 1 || ctx.Root(n.Shape[0]) != batch {
			return batchInfo{reason: fmt.Sprintf("%s consumes the batch dimension", n.Kind)}
		}
		// Shape rules alone cannot see reductions that keep the batch
		// extent (axis-0 mean with keepDims broadcast back, softmax over a
		// rank-1 batch vector): the op kind decides row independence.
		if n.Kind.IsElementwise() {
			continue
		}
		switch n.Kind {
		case graph.OpMatMul:
			if a := n.Inputs[0]; shapeUses(a) && a.Shape.Rank() < 2 {
				return batchInfo{reason: "matmul contracts over the batch dimension"}
			}
			if b := n.Inputs[1]; shapeUses(b) && b.Shape.Rank() < 3 {
				return batchInfo{reason: "matmul right operand carries the batch dimension"}
			}
		case graph.OpReduce:
			for _, ax := range n.Reduce.Axes {
				if ax == 0 {
					return batchInfo{reason: "reduction over the batch dimension"}
				}
			}
		case graph.OpSoftmax, graph.OpLayerNorm:
			// Both normalize over the last axis; on rank 1 that IS the
			// batch axis.
			if n.Inputs[0].Shape.Rank() < 2 {
				return batchInfo{reason: fmt.Sprintf("%s normalizes over the batch dimension", n.Kind)}
			}
		case graph.OpGather:
			// Batch-carrying indices per-row-gather a constant table: fine.
			// A batch-carrying table means rows select across requests.
			if shapeUses(n.Inputs[0]) {
				return batchInfo{reason: "gather from a batch-carrying table"}
			}
		case graph.OpConv1D:
			for _, in := range n.Inputs[1:] {
				if shapeUses(in) {
					return batchInfo{reason: "conv1d filter carries the batch dimension"}
				}
			}
		case graph.OpReshape, graph.OpTranspose, graph.OpConcat, graph.OpSlice, graph.OpPad:
			// Row-mixing forms were rejected by the placement and
			// batch-major rules above.
		default:
			return batchInfo{reason: fmt.Sprintf("%s is not proven row-independent", n.Kind)}
		}
	}
	for _, out := range g.Outputs {
		if out.Shape.Rank() < 1 || ctx.Root(out.Shape[0]) != batch {
			return batchInfo{reason: "output does not carry the batch dimension at index 0"}
		}
	}
	info := batchInfo{ok: true}
	if hi, ok := ctx.UpperBound(batch); ok && hi > 0 {
		info.maxRows = int(hi)
	}
	return info
}

// batchable runs (and caches) the batchability analysis for this model.
// Builders are deterministic, so one throwaway graph decides for all
// requests.
func (m *modelEntry) batchable() batchInfo {
	m.batchOnce.Do(func() {
		m.binfo = analyzeBatchable(m.build())
	})
	return m.binfo
}

// batchMember is one request waiting inside an open batch.
type batchMember struct {
	req      *Request
	rows     int
	joinedAt time.Time
	// done delivers the batch outcome; buffered so the runner never
	// blocks on a member that abandoned.
	done chan batchResult
	// abandoned is set (under openBatch.mu) when the member's context
	// expired mid-linger; the runner skips delivery to it.
	abandoned bool
}

// batchResult is what the runner delivers to each member.
type batchResult struct {
	// solo tells the member to fall through to the per-request path; all
	// other fields are unset. Used for every non-success outcome.
	solo bool

	// outs are this member's rows of every batch output — zero-copy views
	// into the batched result tensors.
	outs     []*tensor.Tensor
	prof     *ral.Profiler
	hit      bool
	rows     int // total stacked batch extent of the engine run
	flushAt  time.Time
	runStart time.Time
}

// openBatch is one in-flight coalescing window for a (model@signature +
// input layout) key.
type openBatch struct {
	b       *batcher
	key     string
	m       *modelEntry
	sig     string
	maxRows int

	// runCtx is the batch run's context: detached from any member (so one
	// caller's cancellation cannot kill its neighbours' work) but wired to
	// the server's force-drain and cancelled when every member abandons.
	runCtx    context.Context
	runCancel context.CancelFunc
	stopForce func() bool

	mu       sync.Mutex
	members  []*batchMember
	rows     int
	live     int
	closed   bool
	deadline time.Time
	timer    *time.Timer
	flushed  chan struct{}
}

// batcher owns the open coalescing windows. One per server when
// Config.MaxBatchSize > 1.
type batcher struct {
	s       *Server
	maxRows int
	linger  time.Duration

	mu   sync.Mutex
	open map[string]*openBatch
}

func newBatcher(s *Server) *batcher {
	return &batcher{
		s:       s,
		maxRows: s.cfg.MaxBatchSize,
		linger:  s.cfg.MaxLinger,
		open:    map[string]*openBatch{},
	}
}

// layoutKey returns the coalescing key suffix for a request's concrete
// inputs: dtype and non-batch dimensions of every input. Requests agree on
// it exactly when their tensors can be stacked along dim 0. ok is false
// when any input has rank 0 or a leading extent disagreeing with the
// others — those go solo and let the engine report the shape error.
func layoutKey(inputs []*tensor.Tensor) (string, int, bool) {
	if len(inputs) == 0 {
		return "", 0, false
	}
	var sb strings.Builder
	rows := -1
	for _, in := range inputs {
		if in.Rank() < 1 {
			return "", 0, false
		}
		if rows < 0 {
			rows = in.Dim(0)
		} else if in.Dim(0) != rows {
			return "", 0, false
		}
		sb.WriteByte('|')
		sb.WriteString(in.DType().String())
		for _, d := range in.Shape()[1:] {
			sb.WriteByte('x')
			sb.WriteString(strconv.Itoa(d))
		}
	}
	if rows < 1 {
		return "", 0, false
	}
	return sb.String(), rows, true
}

// join offers a request to the batcher. It returns (resp, nil, true) on a
// coalesced success, (nil, err, true) when the member's context expired
// while waiting, and handled=false when the request should take the solo
// path — model not batchable, no linger slack before its deadline, rows
// over the cap, or the batch itself handed its members back.
func (b *batcher) join(ctx context.Context, sp *obs.Span, m *modelEntry, req *Request) (*Response, error, bool) {
	info := m.batchable()
	if !info.ok {
		sp.SetAttr("batch_skip", info.reason)
		return nil, nil, false
	}
	sig, err := m.signature()
	if err != nil {
		return nil, nil, false
	}
	lk, rows, ok := layoutKey(req.Inputs)
	if !ok {
		return nil, nil, false
	}
	maxRows := b.maxRows
	if info.maxRows > 0 && info.maxRows < maxRows {
		maxRows = info.maxRows
	}
	if rows >= maxRows {
		return nil, nil, false // fills (or overflows) a batch alone: no point lingering
	}

	// Deadline feasibility: lingering must leave room for the run itself.
	// With a warm estimator the slack is budget − margin × estimate; a
	// cold estimator reserves half the budget for execution rather than
	// letting the linger consume the deadline entirely.
	linger := b.linger
	if dl, hasDL := ctx.Deadline(); hasDL {
		budget := time.Until(dl)
		est := b.s.adm.est.execEstimate()
		slack := budget / 2
		if est > 0 {
			slack = budget - time.Duration(lingerSlackMargin*float64(est))
		}
		if slack <= 0 {
			sp.SetAttr("batch_skip", "deadline slack exhausted")
			return nil, nil, false
		}
		if slack < linger {
			linger = slack
		}
	}

	mb := &batchMember{req: req, rows: rows, joinedAt: time.Now(), done: make(chan batchResult, 1)}
	key := m.name + "@" + sig + lk
	// Lock order is always b.mu → ob.mu; the timer/abandon paths take
	// ob.mu alone and the runner takes b.mu alone (map cleanup), so the
	// two locks never invert.
	b.mu.Lock()
	ob := b.open[key]
	if ob != nil {
		ob.mu.Lock()
		if ob.closed || ob.rows+rows > ob.maxRows {
			// Full or would overflow: flush it and open a fresh window.
			ob.flushLocked()
			ob.mu.Unlock()
			ob = nil
		} else {
			ob.members = append(ob.members, mb)
			ob.rows += rows
			ob.live++
			if ob.rows >= ob.maxRows {
				ob.flushLocked()
			} else if md := mb.joinedAt.Add(linger); md.Before(ob.deadline) {
				// This member tolerates less linger than the window has
				// left: tighten the flush deadline.
				ob.deadline = md
				ob.timer.Reset(linger)
			}
			ob.mu.Unlock()
		}
	}
	if ob == nil {
		ob = b.openBatch(key, m, sig, maxRows, mb, linger)
	}
	b.mu.Unlock()

	select {
	case r := <-mb.done:
		if r.solo {
			return nil, nil, false
		}
		s := b.s.stats
		s.batchedRequest(float64(r.flushAt.Sub(mb.joinedAt).Nanoseconds()))
		simNs := r.prof.SimulatedNs
		s.completed(simNs)
		s.observeSignature(m.name, sig, simNs)
		sp.SetAttr("batched", "true")
		return &Response{
			Outputs:   r.outs,
			Profile:   r.prof,
			CacheHit:  r.hit,
			Signature: sig,
			QueueNs:   r.runStart.Sub(mb.joinedAt).Nanoseconds(),
			Batched:   true,
			BatchSize: r.rows,
		}, nil, true
	case <-ctx.Done():
		ob.abandon(mb)
		b.s.stats.canceled()
		return nil, ctx.Err(), true
	}
}

// openBatch creates a new coalescing window seeded with mb and spawns its
// runner. Caller holds b.mu.
func (b *batcher) openBatch(key string, m *modelEntry, sig string, maxRows int, mb *batchMember, linger time.Duration) *openBatch {
	runCtx, runCancel := context.WithCancel(context.Background())
	ob := &openBatch{
		b: b, key: key, m: m, sig: sig, maxRows: maxRows,
		runCtx: runCtx, runCancel: runCancel,
		members: []*batchMember{mb},
		rows:    mb.rows,
		live:    1,
		flushed: make(chan struct{}),
	}
	ob.stopForce = context.AfterFunc(b.s.forceCtx, runCancel)
	// The timer handle is assigned under ob.mu: its callback takes ob.mu
	// before touching the batch, so the handle is visible by then even if
	// the timer fires immediately.
	ob.mu.Lock()
	ob.deadline = mb.joinedAt.Add(linger)
	ob.timer = time.AfterFunc(linger, ob.flush)
	ob.mu.Unlock()
	// The runner participates in Shutdown's drain independently of its
	// members (who may all abandon mid-run). The Add is safe: the joining
	// member's own Infer already holds the WaitGroup.
	b.s.inflight.Add(1)
	go ob.run()
	b.open[key] = ob
	return ob
}

// flush closes the window from the linger timer.
func (ob *openBatch) flush() {
	ob.mu.Lock()
	ob.flushLocked()
	ob.mu.Unlock()
}

// flushLocked closes the window: no more joins, runner wakes. Caller holds
// ob.mu (and possibly b.mu — the map entry is cleaned up by the runner,
// never here, to keep lock acquisition one-directional).
func (ob *openBatch) flushLocked() {
	if ob.closed {
		return
	}
	ob.closed = true
	ob.timer.Stop()
	close(ob.flushed)
}

// abandon removes a member whose context expired mid-linger. When the last
// live member leaves, the batch run (if any) is cancelled — there is
// nobody left to deliver to.
func (ob *openBatch) abandon(mb *batchMember) {
	ob.mu.Lock()
	if !mb.abandoned {
		mb.abandoned = true
		ob.live--
		if !ob.closed {
			// Pre-flush: free the rows so later joiners can still fill the
			// window. Post-flush the stacked extent is already decided.
			ob.rows -= mb.rows
		}
		if ob.live == 0 {
			if !ob.closed {
				ob.flushLocked()
			}
			ob.runCancel()
		}
	}
	ob.mu.Unlock()
}

// deliver hands r to every member still waiting. Caller must not hold
// ob.mu.
func (ob *openBatch) deliver(r batchResult) {
	ob.mu.Lock()
	for _, mb := range ob.members {
		if !mb.abandoned {
			mb.done <- r
		}
	}
	ob.mu.Unlock()
}

// handBack returns every member to the solo path, counting the batch
// outcome once. A half-open probe admitted for this batch is freed first:
// the members' own solo runs take it and deliver the verdict.
func (ob *openBatch) handBack(br *breaker, probe uint64, outcome string, rows int) {
	br.release(probe)
	ob.b.s.stats.batchRun(outcome, rows)
	ob.deliver(batchResult{solo: true})
}

// run is the batch runner goroutine: it waits for the flush, then — with
// two or more live members — admits once at the members' highest priority,
// stacks the inputs, runs the cached engine once, and scatters the outputs
// back as zero-copy row views. Every non-success outcome hands the members
// back to the solo path (batchResult{solo: true}); see the package comment
// for why.
func (ob *openBatch) run() {
	defer ob.b.s.inflight.Done()
	defer ob.stopForce()
	defer ob.runCancel()
	<-ob.flushed
	flushAt := time.Now()

	// Retire this window's map entry (if a joiner hasn't already replaced
	// it). The runner holds no other lock here.
	ob.b.mu.Lock()
	if ob.b.open[ob.key] == ob {
		delete(ob.b.open, ob.key)
	}
	ob.b.mu.Unlock()

	ob.mu.Lock()
	members := make([]*batchMember, 0, len(ob.members))
	maxPrio := PriorityBestEffort
	rows := 0
	for _, mb := range ob.members {
		if mb.abandoned {
			continue
		}
		members = append(members, mb)
		rows += mb.rows
		if mb.req.Priority > maxPrio {
			maxPrio = mb.req.Priority
		}
	}
	ob.mu.Unlock()

	s := ob.b.s
	if len(members) == 0 {
		return
	}
	if len(members) < 2 {
		// Nothing coalesced: the lone request keeps the full solo-path
		// machinery (retries, estimator feeding, watchdog).
		s.stats.batchRun("solo", rows)
		ob.deliver(batchResult{solo: true})
		return
	}

	var sp *obs.Span
	if s.cfg.Observer != nil {
		sp = s.cfg.Observer.StartSpan("batch",
			obs.A("model", ob.m.name), obs.A("signature", ob.sig),
			obs.A("members", strconv.Itoa(len(members))), obs.A("rows", strconv.Itoa(rows)))
		defer sp.End()
	}

	key := ob.m.name + "@" + ob.sig
	br := s.breakerFor(key)
	ok, probe := br.allow(time.Now())
	if !ok {
		// Quarantined engine: members short-circuit to fallback solo,
		// where the outcome is counted once per request.
		s.stats.batchRun("solo", rows)
		ob.deliver(batchResult{solo: true})
		return
	}

	release, err := s.adm.admitQuiet(ob.runCtx, ob.m.name, maxPrio)
	if err != nil {
		// Rejected or force-drained: members re-enter admission solo so
		// every rejection is counted exactly once, against a real request.
		ob.handBack(br, probe, "solo", rows)
		return
	}
	defer release()

	// Async compilation: a batch must not stall behind the compiler any
	// more than a solo request would. On a cold engine, hand every member
	// back to the solo path — each is then served by the interpreter while
	// the background build (kicked by the solo path) proceeds.
	if s.cfg.AsyncCompile && !s.cfg.DisableFallback {
		_, _, ready, probeUnpin := s.engineFast(ob.m, ob.sig, key, sp)
		if probeUnpin != nil {
			// Readiness probe only — the run below re-acquires its own pin.
			probeUnpin()
		}
		if !ready {
			ob.handBack(br, probe, "solo", rows)
			return
		}
	}
	eng, _, hit, unpin, err := s.engine(ob.m, sp)
	if err != nil {
		ob.handBack(br, probe, "error", rows)
		return
	}
	defer unpin()
	if hit {
		s.stats.cacheHit()
	} else {
		s.stats.cacheMiss()
	}

	nin := len(members[0].req.Inputs)
	stacked := make([]*tensor.Tensor, nin)
	parts := make([]*tensor.Tensor, len(members))
	for i := 0; i < nin; i++ {
		for j, mb := range members {
			parts[j] = mb.req.Inputs[i]
		}
		stacked[i] = tensor.StackDim0(parts...)
	}

	runStart := time.Now()
	rctx := obs.ContextWithSpan(ob.runCtx, sp)
	res, err := runEngine(rctx, eng, stacked)
	if err != nil {
		// Engine fault (or cancellation because everyone abandoned): solo
		// retries drive the breaker and fallback with exact accounting.
		ob.handBack(br, probe, "error", rows)
		return
	}
	for _, o := range res.Outputs {
		if o.Rank() < 1 || o.Dim(0) != rows {
			// The analysis promised batch-major outputs; if an engine ever
			// violates that, serve everyone solo rather than mis-scatter.
			ob.handBack(br, probe, "error", rows)
			return
		}
	}
	br.success()
	s.stats.batchRun("ok", rows)

	// Scatter: each member gets zero-copy views of its own row range in
	// every output. Members stacked in order, so offsets are prefix sums.
	// A member that abandoned after the snapshot paid for stacked rows
	// nobody reads; skipping its delivery is the only bookkeeping needed.
	ob.mu.Lock()
	row := 0
	for _, mb := range members {
		outs := make([]*tensor.Tensor, len(res.Outputs))
		for oi, o := range res.Outputs {
			outs[oi] = tensor.ViewDim0(o, row, mb.rows)
		}
		row += mb.rows
		if !mb.abandoned {
			mb.done <- batchResult{
				outs: outs, prof: res.Profile, hit: hit, rows: rows,
				flushAt: flushAt, runStart: runStart,
			}
		}
	}
	ob.mu.Unlock()
}
