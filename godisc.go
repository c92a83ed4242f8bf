// Package godisc is a Go reproduction of BladeDISC (Zheng et al., SIGMOD
// 2023): an end-to-end compiler for dynamic tensor shape machine learning
// workloads. Models are built as graphs with *symbolic* shapes; CompileWith
// lowers them once through the full pipeline — decomposition, algebraic
// optimization, dynamic-shape fusion (kLoop/kInput/kStitch), and
// compile-time + runtime combined code generation — and the resulting
// Engine serves arbitrary concrete input shapes without recompilation,
// executing real numerics over an analytic GPU device model.
//
// Quickstart:
//
//	g := godisc.NewGraph("mlp")
//	batch := g.Ctx.NewDim("B")
//	x := g.Parameter("x", godisc.F32, godisc.Shape{batch, g.Ctx.StaticDim(64)})
//	w := g.Constant(weights)
//	g.SetOutputs(g.Relu(g.MatMul(x, w)))
//
//	eng, err := godisc.CompileWith(g, godisc.WithDevice(godisc.A10()))
//	res, err := eng.Run([]*godisc.Tensor{input})          // any batch size
//	res, err = eng.RunContext(ctx, []*godisc.Tensor{input}) // with deadline
//
// For serving, NewServer wraps engines in a concurrent runtime with a
// signature-keyed compilation cache, bounded admission and stats. The
// server is fault-tolerant: compile failures and kernel panics degrade to
// a shape-generic interpreter fallback, transient errors are retried with
// backoff, repeatedly failing engines are quarantined by a per-signature
// circuit breaker, and Shutdown drains in-flight requests gracefully:
//
//	srv := godisc.NewServer(godisc.ServerConfig{MaxConcurrent: 8})
//	srv.Register("mlp", buildGraph)
//	resp, err := srv.Infer(ctx, &godisc.Request{Model: "mlp", Inputs: inputs})
//	defer srv.Shutdown(ctx)
//
// With ServerConfig.MaxBatchSize > 1 the server additionally coalesces
// concurrent same-signature requests along the symbolic batch dimension
// into one engine run (dynamic batching); outputs are bit-identical to
// solo runs because batch-1 and batch-N execute the same compiled engine.
//
// See DESIGN.md for the architecture and EXPERIMENTS.md for the
// paper-reproduction record.
package godisc

import (
	"context"
	"fmt"

	"godisc/internal/baselines"
	"godisc/internal/codegen"
	"godisc/internal/device"
	"godisc/internal/discerr"
	"godisc/internal/enginecache"
	"godisc/internal/exec"
	"godisc/internal/faultinject"
	"godisc/internal/fleet"
	"godisc/internal/fusion"
	"godisc/internal/graph"
	"godisc/internal/models"
	"godisc/internal/obs"
	"godisc/internal/opt"
	"godisc/internal/ral"
	"godisc/internal/serve"
	"godisc/internal/symshape"
	"godisc/internal/tensor"
)

// Core type surface, aliased from the implementation packages so user code
// needs only this package.
type (
	// Graph is a tensor computation with symbolic shapes; build it with
	// the methods on Graph (Parameter, MatMul, Softmax, ...).
	Graph = graph.Graph
	// Node is one operation in a Graph.
	Node = graph.Node
	// Tensor is a dense host tensor used for inputs and outputs.
	Tensor = tensor.Tensor
	// Shape is a list of symbolic dimensions.
	Shape = symshape.Shape
	// DimID identifies a symbolic dimension within a graph's context.
	DimID = symshape.DimID
	// ShapeContext owns dimension symbols and shape facts.
	ShapeContext = symshape.Context
	// Device is an analytic GPU model.
	Device = device.Model
	// Profile is the simulated execution profile of a run.
	Profile = ral.Profiler
	// Result bundles outputs and the profile of one Engine.Run.
	Result = exec.Result
	// Model is a ready-made benchmark workload (see Models).
	Model = models.Model
	// Strategy is an execution strategy (BladeDISC or a baseline).
	Strategy = baselines.Strategy
	// DType is a tensor element type.
	DType = tensor.DType
)

// Element types.
const (
	F32  = tensor.F32
	I32  = tensor.I32
	Bool = tensor.Bool
)

// NewGraph returns an empty graph with a fresh shape context.
func NewGraph(name string) *Graph { return graph.New(name) }

// A10 returns the NVIDIA A10 device model.
func A10() *Device { return device.A10() }

// T4 returns the NVIDIA T4 device model.
func T4() *Device { return device.T4() }

// Models returns the built-in benchmark model zoo.
func Models() []*Model { return models.Registry() }

// ModelByName looks a benchmark model up by name.
func ModelByName(name string) (*Model, error) { return models.ByName(name) }

// NewBaselineSuite builds BladeDISC plus the seven baseline strategies of
// the paper over the given model builder.
func NewBaselineSuite(build func() *Graph, dev *Device) (map[string]Strategy, error) {
	return baselines.NewSuite(build, dev)
}

// Typed sentinel errors, re-exported from internal/discerr. Every error
// returned by Compile, Engine.Run and Server.Infer wraps one of these (or
// a context error), so callers branch with errors.Is instead of string
// matching.
var (
	// ErrShapeMismatch: concrete inputs violate the graph's symbolic
	// parameter shapes (arity, a static dim, a repeated symbol bound to
	// two values, or a declared range/divisibility fact).
	ErrShapeMismatch = discerr.ErrShapeMismatch
	// ErrQueueFull: a Server rejected the request because its bounded
	// admission queue is at capacity (or the request was shed for a
	// higher-priority arrival).
	ErrQueueFull = discerr.ErrQueueFull
	// ErrMemoryBudget: the run's pooled-buffer footprint could not be
	// reserved under the configured memory budget (WithMemoryBudget /
	// ServerConfig.MemoryBudgetBytes) before the context expired — or
	// exceeds the budget outright.
	ErrMemoryBudget = discerr.ErrMemoryBudget
	// ErrDeadlineInfeasible: admission rejected the request because its
	// remaining deadline was below the server's moving estimate of queue
	// wait + execution time.
	ErrDeadlineInfeasible = discerr.ErrDeadlineInfeasible
	// ErrQuotaExceeded: the model is at its configured concurrency quota
	// (ServerConfig.ModelQuotas).
	ErrQuotaExceeded = discerr.ErrQuotaExceeded
	// ErrHungRequest: the hung-request watchdog cancelled a run that
	// exceeded WatchdogMultiple × its signature's historical latency; the
	// server recovers it through the interpreter fallback when enabled.
	ErrHungRequest = discerr.ErrHungRequest
	// ErrCompileFailed: optimization, fusion planning or code generation
	// failed.
	ErrCompileFailed = discerr.ErrCompileFailed
	// ErrServerClosed: the request arrived after Server.Close or
	// Server.Shutdown began.
	ErrServerClosed = discerr.ErrServerClosed
	// ErrKernelPanic: a kernel panicked mid-run; the panic was recovered,
	// the run's pooled buffers were released, and the request failed with
	// this typed error (a Server transparently re-serves it through the
	// interpreter fallback).
	ErrKernelPanic = discerr.ErrKernelPanic
	// ErrEngineQuarantined: a circuit breaker opened for this
	// (model, signature) after consecutive failures; the compiled path is
	// quarantined until the cooldown's half-open probe.
	ErrEngineQuarantined = discerr.ErrEngineQuarantined
	// ErrTransient: a retryable fault (injected or environmental, e.g. a
	// failed allocation). Servers retry these with jittered exponential
	// backoff before falling back.
	ErrTransient = discerr.ErrTransient
	// ErrUnsupported: an input used a dtype or feature the runtime cannot
	// execute.
	ErrUnsupported = discerr.ErrUnsupported
	// ErrVersionQuarantined: the fleet's rollout controller quarantined
	// this model version after a failed canary; requests to it are shed
	// until a half-open health probe revives it.
	ErrVersionQuarantined = discerr.ErrVersionQuarantined
	// ErrRolloutAborted: the request's canary version failed and
	// triggered (or raced with) an automatic rollback to the prior
	// version.
	ErrRolloutAborted = discerr.ErrRolloutAborted
)

// Option is a functional compile option, accepted by CompileWith and
// NewServer. The zero configuration (no options) is the full BladeDISC
// pipeline on the A10 device model.
type Option func(*compileConfig)

// compileConfig is the resolved option set.
type compileConfig struct {
	device                *Device
	disableStitch         bool
	disableHorizontal     bool
	disableFusion         bool
	disableSpecialization bool
	verbose               func(format string, args ...any)
	faults                *FaultInjector
	workers               int
	workerPool            *exec.WorkerPool // the server's, in NewServer
	hook                  obs.Hook
	metrics               *Metrics
	governor              *ral.Governor
	cacheDir              string
}

// fingerprint names this compile configuration for the persistent engine
// cache: every knob that changes generated code participates (the engine
// image format version, the device model, and the fusion/codegen
// ablations), so entries from any other configuration are quarantined
// instead of served.
func (c *compileConfig) fingerprint() string {
	return fmt.Sprintf("img%d|dev=%s|stitch=%t|horiz=%t|fusion=%t|spec=%t",
		exec.ImageVersion, c.dev().Name, !c.disableStitch, !c.disableHorizontal,
		!c.disableFusion, !c.disableSpecialization)
}

// dev resolves the device model (default A10).
func (c *compileConfig) dev() *Device {
	if c.device == nil {
		return device.A10()
	}
	return c.device
}

// execOptions derives the engine runtime options, for compiled and
// decoded engines alike. Workers 0 resolves to the worker pool's size,
// else DefaultWorkers; one worker keeps the engine sequential.
func (c *compileConfig) execOptions() exec.Options {
	eo := exec.DefaultOptions()
	if c.disableSpecialization {
		eo.Codegen = codegen.Options{}
	}
	w := c.workers
	if w == 0 {
		if c.workerPool != nil {
			w = c.workerPool.Size()
		} else {
			w = exec.DefaultWorkers()
		}
	}
	if w > 1 {
		eo.Workers = w
		eo.WorkerPool = c.workerPool
	}
	eo.Faults = c.faults
	eo.Hook = c.hook
	eo.Metrics = c.metrics
	eo.Governor = c.governor
	return eo
}

// WithDevice selects the GPU device model (default A10).
func WithDevice(d *Device) Option { return func(c *compileConfig) { c.device = d } }

// WithWorkers sets how many goroutines one Run may use: independent
// kernels are scheduled concurrently over the compiled unit DAG and large
// kernels are partitioned into ranges (see DESIGN.md §9). n == 1 forces
// the sequential engine; n == 0 (the default) resolves to DefaultWorkers.
// Parallel execution is bit-identical to sequential.
func WithWorkers(n int) Option { return func(c *compileConfig) { c.workers = n } }

// WorkerPool bounds the helper goroutines of the engines that share it.
// NewServer creates one per server (Server.WorkerPool) and threads it into
// every engine the server builds, so concurrent requests multiplex a
// single set of helpers.
type WorkerPool = exec.WorkerPool

// DefaultWorkers is the default engine parallelism: GODISC_WORKERS if set
// to a positive integer, else GOMAXPROCS.
func DefaultWorkers() int { return exec.DefaultWorkers() }

// WithoutStitch turns off kStitch fusion (ablation).
func WithoutStitch() Option { return func(c *compileConfig) { c.disableStitch = true } }

// WithoutHorizontalFusion turns off horizontal fusion of independent
// same-domain kernels (ablation).
func WithoutHorizontalFusion() Option {
	return func(c *compileConfig) { c.disableHorizontal = true }
}

// WithoutFusion turns off all fusion (one kernel per op).
func WithoutFusion() Option { return func(c *compileConfig) { c.disableFusion = true } }

// WithoutSpecialization turns off multi-variant codegen (vectorized /
// row-schedule / speculative kernel variants).
func WithoutSpecialization() Option {
	return func(c *compileConfig) { c.disableSpecialization = true }
}

// WithVerbose installs a trace sink receiving one line per optimization
// pass.
func WithVerbose(f func(format string, args ...any)) Option {
	return func(c *compileConfig) { c.verbose = f }
}

// FaultInjector is a deterministic, seedable fault injector probing the
// compile, alloc and kernel-launch sites of every engine compiled with
// WithFaults. Chaos tests use it to prove the resilience machinery
// (fallback, retry, breaker) under reproducible failure storms.
type FaultInjector = faultinject.Injector

// NewFaultInjector returns an inert injector; arm sites on it with
// Arm/ArmLatency.
func NewFaultInjector(seed uint64) *FaultInjector { return faultinject.New(seed) }

// FaultsFromSpec parses a fault spec like
// "compile:transient:0.25,kernel-launch:panic:0.3,alloc:latency:1:2ms"
// (the GODISC_FAULTS grammar). An empty spec returns a nil injector,
// which is valid everywhere and never fires.
func FaultsFromSpec(spec string, seed uint64) (*FaultInjector, error) {
	return faultinject.FromSpec(spec, seed)
}

// WithFaults arms fault-injection probes in compiled engines. A nil
// injector is a no-op, so the option can be passed unconditionally.
func WithFaults(inj *FaultInjector) Option {
	return func(c *compileConfig) { c.faults = inj }
}

// Observability surface, aliased from internal/obs. A Tracer records
// hierarchical wall-time spans per request/run (infer → cache-lookup →
// compile → exec → kernel/partition → fallback/retry), exportable as
// structured JSON (WriteJSON) or a Chrome trace_event file
// (WriteChromeTrace) that chrome://tracing and Perfetto open directly.
// A Metrics registry holds counters/gauges/histograms in Prometheus text
// exposition form (WritePrometheus). Both are nil-safe: the
// instrumentation is free (one branch, no allocation) when absent.
type (
	// Tracer collects finished request traces into a bounded ring.
	Tracer = obs.Tracer
	// Span is one timed node of a request trace.
	Span = obs.Span
	// Observer is the hook interface engines call to open spans;
	// *Tracer implements it.
	Observer = obs.Hook
	// Metrics is a lock-sharded registry of counters, gauges and
	// histograms.
	Metrics = obs.Registry
)

// NewTracer returns a tracer retaining the most recent limit request
// traces (obs.DefaultTraceLimit when limit <= 0).
func NewTracer(limit int) *Tracer { return obs.NewTracer(limit) }

// NewMetrics returns an empty metrics registry.
func NewMetrics() *Metrics { return obs.NewRegistry() }

// WithTracer threads an observer into the compiled engine: each Run opens
// an `exec` span (under the request span, when serving) with per-unit
// kernel/partition children. A nil hook is a no-op — engines compiled
// without one pay a single pointer-nil branch per instrumentation point.
func WithTracer(h Observer) Option {
	return func(c *compileConfig) { c.hook = h }
}

// WithMetrics registers the engine's execution counters and buffer-pool
// gauges on reg. A nil registry is a no-op.
func WithMetrics(reg *Metrics) Option {
	return func(c *compileConfig) { c.metrics = reg }
}

// WithMemoryBudget caps the engine's pooled-buffer memory: each run
// reserves its peak footprint (computed at compile time from the symbolic
// shapes and liveness plan, bound to the run's concrete dims) against a
// private budget of `bytes` before allocating, blocking until memory
// drains or failing with ErrMemoryBudget. bytes <= 0 disables governance.
// Engines built by one NewServer share the server's budget
// (ServerConfig.MemoryBudgetBytes) instead.
func WithMemoryBudget(bytes int64) Option {
	return func(c *compileConfig) { c.governor = ral.NewGovernor(bytes) }
}

// EngineCache is a crash-safe persistent cache of compiled engines. A
// server opened on a cache directory persists every engine it compiles
// and reloads them after a restart without recompiling; entries that are
// corrupt or were built by a different compiler configuration are
// quarantined and rebuilt, never served. See ServerConfig.CacheDir and
// WithEngineCache.
type EngineCache = enginecache.Cache

// WithEngineCache persists compiled engines under dir and reloads them on
// restart (equivalent to setting ServerConfig.CacheDir; the config field
// wins when both are given). The cache is keyed by model, shape signature
// and a fingerprint of the compile configuration — changing the device or
// an ablation quarantines stale entries instead of serving them. Only
// NewServer honors this option; CompileWith ignores it.
func WithEngineCache(dir string) Option {
	return func(c *compileConfig) { c.cacheDir = dir }
}

// Engine is a compiled, shape-generic executable: one compilation serves
// every concrete input shape consistent with the graph's symbolic shapes.
// Engines are safe for concurrent use: all per-run state lives in a
// per-call run context, so any number of goroutines may Run at once.
type Engine struct {
	exe  *exec.Executable
	plan *fusion.Plan
}

// CompileWith runs the full BladeDISC pipeline on g: composite-op
// decomposition and graph optimization, dynamic-shape fusion planning, and
// shape-generic code generation with specialization variants. The graph is
// mutated (optimized) in place and owned by the engine afterwards.
// Failures wrap ErrCompileFailed.
func CompileWith(g *Graph, opts ...Option) (*Engine, error) {
	return compileWith(g, resolve(opts))
}

// resolve applies opts to a zero configuration.
func resolve(opts []Option) compileConfig {
	var cfg compileConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	return cfg
}

// compileWith is CompileWith over a resolved configuration.
func compileWith(g *Graph, cfg compileConfig) (*Engine, error) {
	pipeline := opt.Default()
	pipeline.Trace = cfg.verbose
	if _, err := pipeline.Run(g); err != nil {
		return nil, fmt.Errorf("godisc: optimizing: %w: %w", err, discerr.ErrCompileFailed)
	}
	fcfg := fusion.DefaultConfig()
	if cfg.disableStitch {
		fcfg.EnableStitch = false
	}
	if cfg.disableHorizontal {
		fcfg.EnableHorizontal = false
	}
	if cfg.disableFusion {
		fcfg = fusion.Config{}
	}
	plan, err := fusion.NewPlanner(fcfg).Plan(g)
	if err != nil {
		return nil, fmt.Errorf("godisc: fusion planning: %w: %w", err, discerr.ErrCompileFailed)
	}
	exe, err := exec.Compile(g, plan, cfg.dev(), cfg.execOptions())
	if err != nil {
		return nil, fmt.Errorf("godisc: code generation: %w: %w", err, discerr.ErrCompileFailed)
	}
	return &Engine{exe: exe, plan: plan}, nil
}

// Run executes the engine on concrete inputs. Input dtypes must match the
// graph parameters; concrete shapes may be anything consistent with the
// symbolic parameter shapes (same symbols must bind the same value). It is
// RunContext with a background context.
func (e *Engine) Run(inputs []*Tensor) (*Result, error) {
	return e.exe.Run(inputs)
}

// RunContext executes the engine on concrete inputs under ctx:
// cancellation or deadline expiry stops the run between kernel launches,
// releases its pooled buffers and returns ctx.Err(). Safe for any number
// of concurrent callers on one engine.
func (e *Engine) RunContext(ctx context.Context, inputs []*Tensor) (*Result, error) {
	return e.exe.RunContext(ctx, inputs)
}

// Simulate charges the cost model for a run at the given concrete input
// shapes without executing kernels.
func (e *Engine) Simulate(shapes [][]int) (*Profile, error) {
	return e.exe.Simulate(shapes)
}

// Kernels returns the number of kernels (fusion groups) in the compiled
// plan.
func (e *Engine) Kernels() int { return len(e.plan.Groups) }

// PlanSummary renders the fusion plan for inspection.
func (e *Engine) PlanSummary() string { return e.plan.String() }

// FootprintBytes reports the pooled-buffer reservation one run at the
// given concrete input shapes makes against a memory budget — an upper
// bound, in the pool's own rounded accounting, on the run's in-use
// high-water mark. 0 means the graph allocates nothing.
func (e *Engine) FootprintBytes(shapes [][]int) (int64, error) {
	return e.exe.FootprintBytes(shapes)
}

// MaxFootprintBytes bounds FootprintBytes over every admissible input
// shape, derived from the declared symbolic dimension ranges — the
// capacity-planning number for sizing MemoryBudgetBytes. ok is false when
// some dimension has no declared upper bound.
func (e *Engine) MaxFootprintBytes() (int64, bool) {
	return e.exe.MaxFootprintBytes()
}

// Signature returns the symbolic compilation-cache signature of the
// engine's parameter shapes — the key under which one compilation serves
// all concrete shapes.
func (e *Engine) Signature() string {
	g := e.exe.Graph
	shapes := make([]Shape, len(g.Params))
	for i, p := range g.Params {
		shapes[i] = p.Shape
	}
	return g.Ctx.Signature(shapes)
}

// Serving runtime, aliased from internal/serve.
type (
	// Server is the concurrent serving runtime: a registry of model
	// builders behind a signature-keyed engine cache, bounded admission
	// and serving counters. Build one with NewServer.
	Server = serve.Server
	// ServerConfig bounds server concurrency, queueing, and — when
	// MaxBatchSize > 1 — dynamic request batching (see MaxLinger).
	ServerConfig = serve.Config
	// Request is one inference call: model name, input tensors, and an
	// optional Priority and Deadline. The zero Priority is PriorityBatch,
	// the batching class; PriorityInteractive requests never linger in a
	// coalescing window.
	Request = serve.Request
	// Response carries outputs, the run profile, and cache metadata.
	// Batched reports whether the request was coalesced with others into
	// one engine run, and BatchSize the total stacked rows of that run.
	Response = serve.Response
	// ServerStats is a point-in-time snapshot of serving counters.
	ServerStats = serve.Stats
	// Priority orders requests for admission under overload (see
	// PriorityInteractive/PriorityBatch/PriorityBestEffort).
	Priority = serve.Priority
)

// Request priorities: under overload the server sheds lower-priority
// queued requests to admit higher-priority arrivals. The zero value of
// Request.Priority is PriorityBatch.
const (
	PriorityInteractive = serve.PriorityInteractive
	PriorityBatch       = serve.PriorityBatch
	PriorityBestEffort  = serve.PriorityBestEffort
)

// QueueDepthNone configures ServerConfig.QueueDepth for no admission
// queue: requests beyond MaxConcurrent are rejected immediately with
// ErrQueueFull.
const QueueDepthNone = serve.QueueDepthNone

// NewServer returns a serving runtime that compiles registered models
// on demand with the given compile options. Each model is compiled at
// most once per symbolic shape signature — concurrent first requests are
// singleflight-deduplicated — and the resulting engines are shared by all
// subsequent requests of any concrete shape:
//
//	srv := godisc.NewServer(godisc.ServerConfig{MaxConcurrent: 8}, godisc.WithDevice(godisc.T4()))
//	srv.Register("bert", model.Build)
//	resp, err := srv.Infer(ctx, &godisc.Request{Model: "bert", Inputs: inputs})
func NewServer(cfg ServerConfig, opts ...Option) *Server {
	// Resolve the compile options once up front: the engine-cache
	// fingerprint, the compile path and the decode path all share them.
	rcfg := resolve(opts)
	if cfg.CacheDir == "" {
		cfg.CacheDir = rcfg.cacheDir
	}
	if cfg.CacheDir != "" {
		if cfg.CacheFingerprint == "" {
			cfg.CacheFingerprint = rcfg.fingerprint()
		}
		if cfg.EngineCache == nil {
			// Best effort: an unopenable cache directory disables
			// persistence but never fails the server.
			if ec, err := enginecache.Open(cfg.CacheDir, cfg.CacheFingerprint); err == nil {
				ec.SetFaults(rcfg.faults)
				cfg.EngineCache = ec
			}
		}
	}
	var srv *Server
	// engineConfig is rcfg bound to the server: every engine shares the
	// server's worker pool (helper goroutines are bounded per server, not
	// per engine), its observability (request spans continue into exec
	// through the run context; engine and pool metrics land in the
	// registry /metrics serves), and its memory budget (a nil governor is
	// ungoverned). It runs only after New returns, so srv is bound.
	engineConfig := func() compileConfig {
		c := rcfg
		c.workers, c.workerPool = 1, nil
		if pool := srv.WorkerPool(); pool != nil {
			c.workers, c.workerPool = pool.Size(), pool
		}
		if cfg.Observer != nil {
			c.hook = cfg.Observer
		}
		if cfg.Metrics != nil {
			c.metrics = cfg.Metrics
		}
		c.governor = srv.Governor()
		return c
	}
	if cfg.DecodeEngine == nil {
		cfg.DecodeEngine = func(payload []byte) (serve.Engine, error) {
			c := engineConfig()
			return exec.DecodeImage(payload, c.dev(), c.execOptions())
		}
	}
	if cfg.EncodeEngine == nil {
		cfg.EncodeEngine = func(e serve.Engine) ([]byte, error) {
			exe, ok := e.(*exec.Executable)
			if !ok {
				return nil, fmt.Errorf("godisc: engine %T is not serializable", e)
			}
			return exe.EncodeImage()
		}
	}
	srv = serve.New(cfg, func(g *graph.Graph) (serve.Engine, error) {
		eng, err := compileWith(g, engineConfig())
		if err != nil {
			return nil, err
		}
		return eng.exe, nil
	})
	if cfg.Metrics != nil {
		srv.WorkerPool().Observe(cfg.Metrics)
	}
	return srv
}

// Multi-model fleet serving, aliased from internal/fleet: a KServe-style
// v2 HTTP/JSON inference front-end over a Server, with a versioned model
// repository (load/unload, directory watching) and LRU eviction of idle
// engines under the shared memory budget.
type (
	// Fleet is the HTTP front-end plus model repository; it implements
	// http.Handler. Build one with NewFleet.
	Fleet = fleet.Fleet
	// FleetConfig parameterizes a Fleet: the backing Server, the model
	// repository directory, body-size limits, and the observability hooks
	// the HTTP layer reports through.
	FleetConfig = fleet.Config
	// RolloutConfig (FleetConfig.Rollout) enables health-gated canary
	// rollouts: a new model version serves a traffic fraction (or shadows
	// stable traffic with bit-wise output comparison) and is promoted to
	// the default pin only after enough requests with its error-rate EWMA
	// under threshold; regressions roll it back and quarantine it.
	RolloutConfig = fleet.RolloutConfig
	// FleetRolloutStats is the rollout controller's counter snapshot
	// (Fleet.RolloutStats), reported by discserve at shutdown.
	FleetRolloutStats = fleet.RolloutStats
)

// NewFleet builds a v2 inference front-end over cfg.Server:
//
//	srv := godisc.NewServer(godisc.ServerConfig{CacheDir: dir})
//	f, err := godisc.NewFleet(godisc.FleetConfig{Server: srv, Repo: repoDir, AutoLoad: true})
//	http.ListenAndServe(addr, f)
//
// Model repositories hold one directory per model with numbered version
// subdirectories, each containing a model.graph file in the WriteGraph
// format. See internal/fleet for the route table.
func NewFleet(cfg FleetConfig) (*Fleet, error) { return fleet.New(cfg) }

// Evaluate interprets a graph with the reference semantics (no compilation,
// no device model) — the ground truth compiled engines are tested against.
func Evaluate(g *Graph, inputs []*Tensor) ([]*Tensor, error) {
	return graph.Evaluate(g, inputs)
}

// WriteGraph serializes a graph (dimension declarations, nodes, constant
// payloads) in the textual interchange format.
func WriteGraph(g *Graph) string { return graph.WriteText(g) }

// ParseGraph reconstructs a graph from the WriteGraph format. The result
// is verified before being returned.
func ParseGraph(src string) (*Graph, error) { return graph.ParseText(src) }

// Tensor constructors, re-exported for convenience.

// NewTensor allocates a zero tensor.
func NewTensor(dt DType, shape ...int) *Tensor { return tensor.New(dt, shape...) }

// FromF32 wraps float32 data into a tensor.
func FromF32(data []float32, shape ...int) *Tensor { return tensor.FromF32(data, shape...) }

// FromI32 wraps int32 data into a tensor.
func FromI32(data []int32, shape ...int) *Tensor { return tensor.FromI32(data, shape...) }

// Scalar returns a rank-0 f32 tensor.
func Scalar(v float32) *Tensor { return tensor.Scalar(v) }

// RandN returns a tensor of scaled normal values from a deterministic
// generator.
func RandN(seed uint64, scale float32, shape ...int) *Tensor {
	return tensor.RandN(tensor.NewRNG(seed), scale, shape...)
}

// AllClose reports whether two tensors agree within tolerances, returning a
// descriptive error on mismatch.
func AllClose(a, b *Tensor, rtol, atol float64) error { return tensor.AllClose(a, b, rtol, atol) }
