// Package exec turns a fusion plan into a runnable executable: each group
// is lowered once (shape-generically) at compile time; Run binds concrete
// input shapes, derives every intermediate extent through the *compiled*
// host-side shape program (see shapeprog.go), dispatches kernel variants,
// executes the kernel IR for real numerics, and charges the analytic
// device model for simulated time. One Executable serves arbitrary input
// shapes — the whole point of the dynamic-shape pipeline.
//
// Execution comes in two flavors sharing all state machinery: a sequential
// walk over the units (the legacy path, and the differential baseline) and
// a DAG-scheduled parallel engine (sched.go) that runs independent units
// concurrently and partitions large kernels across a worker pool.
package exec

import (
	"context"
	"fmt"
	"time"

	"godisc/internal/codegen"
	"godisc/internal/device"
	"godisc/internal/discerr"
	"godisc/internal/faultinject"
	"godisc/internal/fusion"
	"godisc/internal/graph"
	"godisc/internal/obs"
	"godisc/internal/ral"
	"godisc/internal/symshape"
	"godisc/internal/tensor"
)

// Options configures compilation.
type Options struct {
	// Codegen toggles specialization variants.
	Codegen codegen.Options
	// HostDispatchNs is charged once per kernel/library launch for the
	// runtime's host-side work (RAL dispatch). Small for compiled
	// runtimes; baselines use larger values to model framework overhead.
	HostDispatchNs float64
	// AliasViews executes single-reshape groups as zero-cost aliases
	// rather than copy kernels (on by default via Compile).
	AliasViews bool
	// DisableLivenessPlanning keeps every intermediate alive until the
	// run ends instead of returning buffers to the pool after their last
	// use (the buffer-planning ablation; see experiment E10).
	DisableLivenessPlanning bool
	// Faults, when set, probes the compile / alloc / kernel-launch fault
	// sites so failure paths are testable (see internal/faultinject).
	Faults *faultinject.Injector
	// Workers is the number of goroutines executing one run (the calling
	// goroutine included). <= 1 keeps the legacy sequential walk — the
	// zero value, so embedders that built Options by hand are unaffected;
	// the public godisc API opts into DefaultWorkers().
	Workers int
	// WorkerPool, when non-nil, bounds helper goroutines across every
	// engine sharing it (one pool per serving process). Nil with
	// Workers > 1 gives the engine a private pool of Workers-1 helpers.
	WorkerPool *WorkerPool
	// Hook, when non-nil, receives execution spans: an `exec` span per
	// run (attached to the request span carried in the context, if any)
	// with per-unit kernel/library children and per-chunk partition
	// children. Nil keeps the hot path at a single pointer-nil branch.
	Hook obs.Hook
	// Metrics, when non-nil, registers this engine's execution counters
	// and buffer-pool gauges.
	Metrics *obs.Registry
	// Governor, when non-nil, enforces a global memory budget: every run
	// reserves its peak pooled-buffer footprint (see footprint.go) before
	// allocating, blocking until it fits or failing with
	// discerr.ErrMemoryBudget. One governor is shared by every engine
	// under the same budget.
	Governor *ral.Governor
}

// DefaultOptions mirrors the BladeDISC configuration. Execution stays
// sequential; callers opt into the parallel engine via Workers.
func DefaultOptions() Options {
	return Options{Codegen: codegen.DefaultOptions(), HostDispatchNs: 1500, AliasViews: true}
}

// unit is one schedulable step of the executable, with its shape metadata
// compiled to slot references.
type unit struct {
	group  *fusion.Group
	kernel *codegen.Kernel // nil for library calls and aliases
	isLib  bool
	alias  bool

	// Compiled shape references (see shapeprog.go).
	domainRefs    []dimRef   // kernel iteration space
	kernelDimRefs []dimRef   // aligned with kernel.Dims
	inShapeRefs   [][]dimRef // per group input
	outShapeRefs  [][]dimRef // per group output
}

// Executable is a compiled graph.
type Executable struct {
	Graph *graph.Graph
	Plan  *fusion.Plan
	Dev   *device.Model
	opts  Options
	units []*unit
	// prog is the compiled host-side shape computation.
	prog *shapeProgram
	// outRefs holds the compiled shape of every graph output.
	outRefs [][]dimRef
	// constBufs holds flattened constants, computed once at compile time.
	constBufs map[*graph.Node][]float32

	// Task DAG and slot plan (see sched.go): tasks are the non-alias units
	// with producer/consumer edges; every runtime value (unit output,
	// referenced parameter or constant) has a slot; refs0 seeds the
	// per-buffer reference counts that free pooled buffers correctly even
	// when tasks complete out of order.
	nSlots      int
	tasks       []*task
	refs0       []int32
	paramRefs   []paramRef
	constRefs   []constRef
	outputSlots []int

	// fp is the compile-time memory footprint plan (footprint.go):
	// which pooled buffers coexist, sized symbolically, so a run can
	// reserve its peak usage against Options.Governor up front.
	fp *footprintPlan

	// Pool provides intermediate buffers across runs.
	Pool *ral.Pool

	// maxFP/maxFPOK cache MaxFootprintBytes. Engines decoded from a
	// serialized image have no symbolic context to derive the bound from,
	// so the image carries the precomputed value (maxFPSet).
	maxFP    int64
	maxFPOK  bool
	maxFPSet bool

	// Cached metric handles (nil when Options.Metrics is unset; every
	// method on a nil handle no-ops, so call sites stay unguarded).
	mTasks      *obs.Counter
	mPartitions *obs.Counter
}

// Compile lowers every group of the plan. The graph must be decomposed,
// optimized and verified; plan must come from the fusion planner on the
// same graph.
func Compile(g *graph.Graph, plan *fusion.Plan, dev *device.Model, opts Options) (*Executable, error) {
	if err := opts.Faults.Check(faultinject.SiteCompile); err != nil {
		return nil, fmt.Errorf("exec: compiling %s: %w", g.Name, err)
	}
	e := newExecutable(g, dev, opts)
	e.Plan = plan
	e.constBufs = map[*graph.Node][]float32{}
	for _, n := range g.Toposort() {
		if n.Kind == graph.OpConstant {
			buf, err := flatten(n.Lit)
			if err != nil {
				return nil, fmt.Errorf("exec: constant %%%d: %w", n.ID, err)
			}
			e.constBufs[n] = buf
		}
	}
	for _, grp := range plan.Groups {
		u := &unit{group: grp}
		switch {
		case grp.Kind == fusion.KLibrary:
			u.isLib = true
		case opts.AliasViews && len(grp.Nodes) == 1 && grp.Nodes[0].Kind == graph.OpReshape:
			u.alias = true
		default:
			k, err := codegen.Lower(g.Ctx, grp, opts.Codegen)
			if err != nil {
				return nil, fmt.Errorf("exec: lowering group %d (%s): %w", grp.ID, grp.Kind, err)
			}
			u.kernel = k
		}
		e.units = append(e.units, u)
	}
	if err := e.compileShapes(); err != nil {
		return nil, err
	}
	e.buildSchedule()
	e.buildFootprint()
	return e, nil
}

// newExecutable builds the runtime state an Executable carries however it
// was produced (compiled or decoded from an image): the buffer pool with
// the fault injector attached, a private worker pool when the engine runs
// parallel without a shared one, and the metric handles. The pool
// publishes into series shared by every engine of the graph.
func newExecutable(g *graph.Graph, dev *device.Model, opts Options) *Executable {
	if opts.Workers > 1 && opts.WorkerPool == nil {
		opts.WorkerPool = NewWorkerPool(opts.Workers)
	}
	e := &Executable{Graph: g, Dev: dev, opts: opts, Pool: ral.NewPool()}
	e.Pool.SetFaults(opts.Faults)
	if reg := opts.Metrics; reg != nil {
		l := obs.L("graph", g.Name)
		e.mTasks = reg.Counter("godisc_exec_tasks_total", l)
		e.mPartitions = reg.Counter("godisc_exec_partitions_total", l)
		e.Pool.Observe(ral.NewPoolMetrics(reg, l))
	}
	return e
}

// compileShapes builds the host shape program and every unit's compiled
// shape references.
func (e *Executable) compileShapes() error {
	g := e.Graph
	// Collect every dimension the runtime will need.
	var needed []symshape.DimID
	for _, u := range e.units {
		needed = append(needed, u.group.Domain...)
		if u.kernel != nil {
			needed = append(needed, u.kernel.Dims...)
		}
		for _, in := range u.group.Inputs {
			needed = append(needed, in.Shape...)
		}
		for _, out := range u.group.Outputs {
			needed = append(needed, out.Shape...)
		}
	}
	for _, o := range g.Outputs {
		needed = append(needed, o.Shape...)
	}
	prog, slotOf, err := compileShapeProgram(g, needed)
	if err != nil {
		return err
	}
	e.prog = prog
	refsFor := func(s symshape.Shape) ([]dimRef, error) {
		out := make([]dimRef, len(s))
		for i, d := range s {
			if v, ok := g.Ctx.StaticValue(d); ok {
				out[i] = dimRef{Static: v, Slot: -1}
				continue
			}
			slot, ok := slotOf[g.Ctx.Root(d)]
			if !ok {
				return nil, fmt.Errorf("exec: dimension %s missing from shape program", g.Ctx.Name(d))
			}
			out[i] = dimRef{Slot: slot}
		}
		return out, nil
	}
	for _, u := range e.units {
		if u.domainRefs, err = refsFor(u.group.Domain); err != nil {
			return err
		}
		if u.kernel != nil {
			if u.kernelDimRefs, err = refsFor(symshape.Shape(u.kernel.Dims)); err != nil {
				return err
			}
		}
		for _, in := range u.group.Inputs {
			refs, err := refsFor(in.Shape)
			if err != nil {
				return err
			}
			u.inShapeRefs = append(u.inShapeRefs, refs)
		}
		for _, out := range u.group.Outputs {
			refs, err := refsFor(out.Shape)
			if err != nil {
				return err
			}
			u.outShapeRefs = append(u.outShapeRefs, refs)
		}
	}
	for _, o := range g.Outputs {
		refs, err := refsFor(o.Shape)
		if err != nil {
			return err
		}
		e.outRefs = append(e.outRefs, refs)
	}
	return nil
}

// Result is the outcome of one Run.
type Result struct {
	Outputs []*tensor.Tensor
	Profile *ral.Profiler
}

// Run executes the graph on concrete inputs. It is RunContext with a
// background context.
func (e *Executable) Run(inputs []*tensor.Tensor) (*Result, error) {
	return e.RunContext(context.Background(), inputs)
}

// RunContext executes the graph on concrete inputs under ctx. All per-run
// state lives in a fresh runCtx, so any number of goroutines may call
// RunContext on one Executable concurrently; the shared buffer pool is
// internally locked and everything else on the Executable is immutable
// after Compile. With Options.Workers > 1 the run is scheduled over the
// unit DAG by the parallel engine (sched.go), which also checks
// cancellation at partition granularity; the sequential walk checks it
// between units.
//
// A panic during execution (a crashing kernel, real or injected) is
// recovered and returned as an error wrapping discerr.ErrKernelPanic, so
// one bad kernel degrades its request instead of the process. Pooled
// buffers are still released on that path: the run context's deferred
// release runs during unwinding, before the recover here. Parallel worker
// goroutines recover panics locally (sched.go) and drain the DAG before
// the error is returned here.
func (e *Executable) RunContext(ctx context.Context, inputs []*tensor.Tensor) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, panicErr(r)
		}
	}()
	g := e.Graph
	if len(inputs) != len(g.Params) {
		return nil, fmt.Errorf("exec: %d inputs for %d parameters: %w",
			len(inputs), len(g.Params), discerr.ErrShapeMismatch)
	}
	shapes := make([][]int, len(inputs))
	for i, in := range inputs {
		shapes[i] = in.Shape()
	}
	// Compiled host-side shape computation.
	vals, err := e.prog.Run(shapes)
	if err != nil {
		return nil, err
	}
	workers, pool := e.opts.Workers, e.opts.WorkerPool
	if workers <= 0 && pool != nil {
		workers = pool.Size()
	}
	// Memory governance: reserve this run's peak pooled footprint before
	// the first allocation, so concurrent runs can never overshoot the
	// byte budget no matter how their allocations interleave.
	unreserve, err := e.reserveFootprint(ctx, vals, workers)
	if err != nil {
		return nil, err
	}
	defer unreserve()
	rc, err := e.newRunCtx(ctx, inputs, vals)
	if err != nil {
		return nil, err
	}
	defer rc.release()

	// Observability: one `exec` span per run, attached under the request
	// span carried in ctx (if any). The disabled state pays exactly this
	// one branch — no context lookup, no clock read.
	if e.opts.Hook != nil {
		elems := 0
		for _, in := range inputs {
			elems += in.Numel()
		}
		rc.span = obs.StartChild(e.opts.Hook, obs.SpanFromContext(ctx), "exec",
			obs.A("graph", g.Name), obs.A("shape_bucket", obs.ShapeBucket(elems)))
		defer func() {
			if err != nil {
				rc.span.SetAttr("error", err.Error())
			}
			rc.span.End()
		}()
	}

	if workers > 1 && len(e.tasks) > 1 {
		if err := e.runParallel(rc, workers, pool); err != nil {
			return nil, err
		}
	} else if err := e.runSequential(rc); err != nil {
		return nil, err
	}

	outs := make([]*tensor.Tensor, len(g.Outputs))
	for i, o := range g.Outputs {
		buf, err := rc.bufOf(e.outputSlots[i])
		if err != nil {
			return nil, err
		}
		outs[i], err = unflatten(buf, evalRefs(vals, e.outRefs[i]), o.DType)
		if err != nil {
			return nil, fmt.Errorf("exec: output %d: %w", i, err)
		}
	}
	return &Result{Outputs: outs, Profile: rc.prof}, nil
}

// runSequential is the legacy executor: tasks in plan order on the calling
// goroutine, cancellation checked between units. It is the differential
// baseline the parallel engine must match bit-for-bit.
func (e *Executable) runSequential(rc *runCtx) error {
	for _, t := range e.tasks {
		if err := rc.cancelled(); err != nil {
			return err
		}
		var sp *obs.Span
		if rc.span != nil {
			name, unit := t.spanInfo()
			sp = rc.span.Child(name, obs.A("unit", unit))
		}
		var err error
		if t.u.isLib {
			err = e.runLibrary(rc, t)
		} else {
			err = e.runKernelSeq(rc, t)
		}
		sp.End()
		e.mTasks.Inc()
		if err != nil {
			return err
		}
		if !e.opts.DisableLivenessPlanning {
			for _, sl := range t.reads {
				rc.decRef(sl)
			}
		}
	}
	return nil
}

// runLibrary executes a matmul/conv through the BLAS substitute and
// charges the library cost model into the run's profile.
func (e *Executable) runLibrary(rc *runCtx, t *task) error {
	u := t.u
	n := u.group.Nodes[0]
	aBuf, err := rc.bufOf(t.inSlots[0])
	if err != nil {
		return err
	}
	bBuf, err := rc.bufOf(t.inSlots[1])
	if err != nil {
		return err
	}
	aShape := evalRefs(rc.vals, u.inShapeRefs[0])
	bShape := evalRefs(rc.vals, u.inShapeRefs[1])
	a := tensor.FromF32(aBuf[:tensor.Numel(aShape)], aShape...)
	b := tensor.FromF32(bBuf[:tensor.Numel(bShape)], bShape...)
	var out *tensor.Tensor
	switch n.Kind {
	case graph.OpMatMul:
		if n.TransB {
			// The BLAS substitute contracts against the transposed view;
			// materialize it here (a real library reads it strided).
			perm := make([]int, b.Rank())
			for i := range perm {
				perm[i] = i
			}
			perm[len(perm)-1], perm[len(perm)-2] = perm[len(perm)-2], perm[len(perm)-1]
			b = tensor.Transpose(b, perm)
		}
		out = tensor.MatMul(a, b)
	case graph.OpConv1D:
		out = tensor.Conv1D(a, b)
	default:
		return fmt.Errorf("exec: unsupported library op %s", n.Kind)
	}
	buf, err := rc.sess.Get(out.Numel())
	if err != nil {
		return err
	}
	copy(buf, out.F32())
	rc.setOwned(t.outSlots[0], buf)
	name, bytes, flops := libraryCost(n.Kind, aShape, bShape, out.Shape())
	simNs := e.Dev.MatmulTimeNs(bytes, flops)
	rc.mu.Lock()
	rc.prof.Host(e.opts.HostDispatchNs)
	rc.prof.Library(name, bytes, flops, simNs)
	rc.mu.Unlock()
	return nil
}

// libraryCost computes the traffic and arithmetic of a library call from
// its operand shapes. Convolutions are charged as their implicit GEMM.
func libraryCost(kind graph.OpKind, aShape, bShape, oShape []int) (string, float64, float64) {
	bytes := float64(4 * (tensor.Numel(aShape) + tensor.Numel(bShape) + tensor.Numel(oShape)))
	switch kind {
	case graph.OpConv1D:
		// flops = 2 * outputs * K * Cin.
		k, cin := bShape[0], bShape[1]
		return "conv1d", bytes, 2 * float64(tensor.Numel(oShape)) * float64(k) * float64(cin)
	default:
		m := oShape[len(oShape)-2]
		nn := oShape[len(oShape)-1]
		k := aShape[len(aShape)-1]
		batch := tensor.Numel(oShape) / (m * nn)
		return "matmul", bytes, 2 * float64(batch) * float64(m) * float64(nn) * float64(k)
	}
}

// launch is a prepared kernel invocation: variant selected, dims bound,
// input and output buffers resolved. Scratch rows are drawn per program
// run (getScratch): once for a whole launch, once per chunk when
// partitioned.
type launch struct {
	t       *task
	k       *codegen.Kernel
	variant *codegen.Variant
	bufs    [][]float32 // inputs then outputs
	dims    []int
	numel   int
	rowLen  int
	bytes   float64
	// outer is the selected variant's outer-loop extent when the kernel
	// may be range-partitioned; 0 otherwise.
	outer int
	// Partial-reduce state (parallel engine only): the partials buffer and
	// the argument vectors of the partial program.
	partials []float32
	pbufs    [][]float32
	pdims    []int
}

// prepareKernel sizes the launch: evaluates dims, selects the variant,
// resolves input buffers and allocates outputs into their slots, then
// probes the kernel-launch fault site. Both executors launch through it.
func (e *Executable) prepareKernel(rc *runCtx, t *task) (*launch, error) {
	u := t.u
	k := u.kernel
	vals := rc.vals

	numel := refsNumel(vals, u.domainRefs)
	rowLen := 0
	if n := len(u.domainRefs); n > 0 {
		r := u.domainRefs[n-1]
		if r.Slot < 0 {
			rowLen = int(r.Static)
		} else {
			rowLen = int(vals[r.Slot])
		}
	}
	dims := evalRefs(vals, u.kernelDimRefs)
	variant := k.Select(codegen.RunInfoOf(numel, rowLen, dims))

	bufs := make([][]float32, 0, len(u.group.Inputs)+len(u.group.Outputs)+k.ScratchRows)
	var bytes float64
	for _, sl := range t.inSlots {
		v, err := rc.bufOf(sl)
		if err != nil {
			return nil, err
		}
		bufs = append(bufs, v)
		bytes += float64(4 * len(v))
	}
	for oi, sl := range t.outSlots {
		buf, err := rc.sess.Get(refsNumel(vals, u.outShapeRefs[oi]))
		if err != nil {
			return nil, err
		}
		rc.setOwned(sl, buf)
		bufs = append(bufs, buf)
		bytes += float64(4 * len(buf))
	}
	if err := e.opts.Faults.Check(faultinject.SiteKernelLaunch); err != nil {
		return nil, fmt.Errorf("exec: launching %s: %w", k.Name, err)
	}
	outer := 0
	if k.ParallelOuter && variant.Code.Partitionable() {
		outer = variant.Code.OuterExtent(dims)
	}
	return &launch{
		t: t, k: k, variant: variant, bufs: bufs, dims: dims,
		numel: numel, rowLen: rowLen, bytes: bytes, outer: outer,
	}, nil
}

// runKernelSeq prepares and launches a kernel whole on the calling
// goroutine.
func (e *Executable) runKernelSeq(rc *runCtx, t *task) error {
	ln, err := e.prepareKernel(rc, t)
	if err != nil {
		return err
	}
	return e.runWholeKernel(rc, ln)
}

// runWholeKernel runs a prepared kernel whole on the calling goroutine and
// charges it, with the program's host wall time.
func (e *Executable) runWholeKernel(rc *runCtx, ln *launch) error {
	bufs, err := rc.getScratch(ln, ln.bufs)
	if err != nil {
		return err
	}
	defer rc.putScratch(bufs[len(ln.bufs):])
	start := time.Now()
	if err := ln.variant.Code.Run(bufs, ln.dims); err != nil {
		return err
	}
	e.chargeKernel(rc, ln, 1, time.Since(start))
	return nil
}

// runChunk executes outer-loop range [lo, hi) of a prepared kernel, with
// chunk-private scratch rows. For partial reductions the range is over
// partial indices of the partial program instead.
func (e *Executable) runChunk(rc *runCtx, ln *launch, lo, hi int) error {
	if ln.partials != nil {
		return ln.k.Partial.Partial.RunRange(ln.pbufs, ln.pdims, lo, hi)
	}
	bufs := ln.bufs
	if n := ln.k.ScratchRows; n > 0 {
		var err error
		bufs, err = rc.getScratch(ln, append(make([][]float32, 0, len(bufs)+n), bufs...))
		if err != nil {
			return err
		}
		defer rc.putScratch(bufs[len(ln.bufs):])
	}
	return ln.variant.Code.RunRange(bufs, ln.dims, lo, hi)
}

// chargeKernel charges a completed kernel launch into the run's profile.
// Simulated device time is identical whether the host ran the kernel
// whole or in chunks — the analytic model already assumes a parallel
// device; chunking buys host wall-clock time, which is what the E14
// benchmark measures. A whole launch records its program wall time; a
// chunked one is counted in Profiler.Partitions instead.
func (e *Executable) chargeKernel(rc *runCtx, ln *launch, chunks int, wall time.Duration) {
	k := ln.k
	// Cost: inputs + outputs traffic (intermediates live in registers or
	// shared-memory scratch), with a small synchronization surcharge per
	// extra stitched pass.
	passPenalty := 1 + 0.08*float64(k.Passes-1)
	cost := device.KernelCost{
		Bytes:             ln.bytes * passPenalty,
		Flops:             float64(k.FlopsPerPoint) * float64(ln.numel),
		MemEfficiency:     ln.variant.MemEfficiency,
		ComputeEfficiency: ln.variant.ComputeEfficiency,
	}
	simNs := e.Dev.KernelTimeNs(cost)
	rc.mu.Lock()
	rc.prof.Host(e.opts.HostDispatchNs)
	rc.prof.Launch(k.Name, ln.variant.Name, cost.Bytes, cost.Flops, simNs)
	if chunks > 1 {
		rc.prof.Partitions += chunks
		e.mPartitions.Add(int64(chunks))
	} else {
		rc.prof.KernelWall(float64(wall))
	}
	rc.mu.Unlock()
}

// spanInfo names the task's span: "library" with the op kind for library
// calls, "kernel" with the generated kernel name otherwise.
func (t *task) spanInfo() (name, unit string) {
	if t.u.isLib {
		return "library", fmt.Sprintf("%v", t.u.group.Nodes[0].Kind)
	}
	return "kernel", t.u.kernel.Name
}

// flatten converts any tensor into the runtime's f32 buffer form. Integer
// and boolean payloads are value-preserving for the magnitudes models use.
// An unknown dtype is an ErrUnsupported error, not a panic: it degrades
// the one request carrying it instead of the process.
func flatten(t *tensor.Tensor) ([]float32, error) {
	switch t.DType() {
	case tensor.F32:
		return t.F32(), nil
	case tensor.I32:
		out := make([]float32, t.Numel())
		for i, v := range t.I32() {
			out[i] = float32(v)
		}
		return out, nil
	case tensor.Bool:
		out := make([]float32, t.Numel())
		for i, v := range t.Bools() {
			if v {
				out[i] = 1
			}
		}
		return out, nil
	}
	return nil, fmt.Errorf("exec: dtype %v: %w", t.DType(), discerr.ErrUnsupported)
}

// unflatten wraps a buffer back into a typed tensor, copying so results
// outlive pooled buffers. Unknown dtypes error like flatten.
func unflatten(buf []float32, shape []int, dt tensor.DType) (*tensor.Tensor, error) {
	n := tensor.Numel(shape)
	switch dt {
	case tensor.F32:
		out := make([]float32, n)
		copy(out, buf[:n])
		return tensor.FromF32(out, shape...), nil
	case tensor.I32:
		out := make([]int32, n)
		for i := 0; i < n; i++ {
			out[i] = int32(buf[i])
		}
		return tensor.FromI32(out, shape...), nil
	case tensor.Bool:
		out := make([]bool, n)
		for i := 0; i < n; i++ {
			out[i] = buf[i] != 0
		}
		return tensor.FromBool(out, shape...), nil
	}
	return nil, fmt.Errorf("exec: dtype %v: %w", dt, discerr.ErrUnsupported)
}
