// Package serve is the concurrent serving runtime layered over the
// shape-generic compiler: the production face of the paper's compilation
// cache. A Server owns
//
//   - a registry of named model builders;
//   - a signature-keyed engine cache — each model compiles once per
//     *symbolic* shape signature (the paper's cache key), and the
//     singleflight compilation cache guarantees a burst of concurrent
//     first requests pays for exactly one compilation;
//   - bounded admission — MaxConcurrent requests execute at once, up to
//     QueueDepth more wait (honouring per-request deadline/cancellation),
//     and anything beyond that is rejected immediately with
//     discerr.ErrQueueFull instead of collapsing under load;
//   - resource governance — priority load shedding, deadline
//     infeasibility rejection and per-model quotas (govern.go), an
//     optional global memory budget enforced by a ral.Governor the
//     engines reserve their footprint against, and a hung-request
//     watchdog that cancels runs exceeding a multiple of their
//     signature's historical latency and recovers them through the
//     interpreter fallback;
//   - a stats collector exposing requests, cache behaviour, queue depth
//     and p50/p99 simulated latency as a Stats snapshot.
//
// Execution itself is concurrency-safe because exec.RunContext keeps all
// per-run mutable state in a per-call run context; the server simply
// dispatches N goroutines into one cached engine.
package serve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"godisc/internal/discerr"
	"godisc/internal/enginecache"
	"godisc/internal/exec"
	"godisc/internal/graph"
	"godisc/internal/obs"
	"godisc/internal/ral"
	"godisc/internal/symshape"
	"godisc/internal/tensor"
)

// Engine is the executable contract the server dispatches requests to.
// *exec.Executable implements it; tests substitute stubs.
type Engine interface {
	RunContext(ctx context.Context, inputs []*tensor.Tensor) (*exec.Result, error)
}

// CompileFunc lowers a freshly built graph into an Engine. The server
// invokes it at most once per (model, symbolic signature) — under the
// singleflight cache — no matter how many requests race on a cold model.
type CompileFunc func(g *graph.Graph) (Engine, error)

// Config parameterizes admission control and the resilience policy.
type Config struct {
	// MaxConcurrent is the number of requests executing at once
	// (default: GOMAXPROCS).
	MaxConcurrent int
	// QueueDepth bounds how many admitted-but-waiting requests may queue
	// (default 64; QueueDepthNone — or any negative value — means no
	// queueing: reject when all execution slots are busy).
	QueueDepth int
	// ModelQuotas optionally caps one model's queued+executing occupancy
	// so a hot model cannot starve the rest; requests over quota are
	// rejected with discerr.ErrQuotaExceeded. Unlisted models are
	// unlimited (within MaxConcurrent/QueueDepth).
	ModelQuotas map[string]int

	// MaxBatchSize enables admission-side dynamic batching when > 1: up to
	// MaxBatchSize total rows of concurrently queued requests to the same
	// model — agreeing on dtype and every non-batch dimension — are
	// stacked along the symbolic batch dimension and served by ONE engine
	// run, then scattered back as zero-copy row views. The zero value (or
	// any value ≤ 1) disables batching entirely. Only models whose graphs
	// are provably row-independent coalesce (see batch.go); everything
	// else is served solo, unchanged.
	MaxBatchSize int
	// MaxLinger bounds how long the first request of a batch waits for
	// company before the window flushes (default 2ms when batching is
	// enabled). A request with a deadline never lingers past the point the
	// deadline becomes infeasible, and Interactive requests never linger
	// at all.
	MaxLinger time.Duration

	// MemoryBudgetBytes, when > 0, caps the total pooled-buffer footprint
	// of concurrently executing engine runs: the server builds a
	// ral.Governor (see Governor()) that compile functions thread into
	// exec.Options.Governor, and each run reserves its peak footprint
	// before allocating — waiting for memory to drain or failing with
	// discerr.ErrMemoryBudget. 0 disables governance.
	MemoryBudgetBytes int64

	// WatchdogMultiple, when > 0, arms the hung-request watchdog: an
	// engine run exceeding Multiple × its signature's moving-average wall
	// latency is cancelled (discerr.ErrHungRequest) and recovered through
	// the breaker/fallback path. The limit never drops below
	// WatchdogFloor (default 10ms) and only applies once a signature has
	// latency history. 0 disables the watchdog.
	WatchdogMultiple float64
	// WatchdogFloor is the minimum watchdog limit (default 10ms).
	WatchdogFloor time.Duration

	// MaxRetries bounds re-attempts after a transient failure
	// (discerr.ErrTransient), with jittered exponential backoff between
	// attempts. Default 2; negative disables retries.
	MaxRetries int
	// RetryBackoff is the base delay before the first retry; each
	// further retry doubles it, and each delay is jittered to [d/2, d).
	// Default 1ms.
	RetryBackoff time.Duration
	// BreakerThreshold is the number of consecutive engine failures that
	// quarantines a (model, signature) engine — requests then go straight
	// to the interpreter fallback. Default 3; negative disables the
	// breaker.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker waits before
	// half-opening to admit one probe request. Default 10s.
	BreakerCooldown time.Duration
	// DisableFallback turns off the interpreter fallback: engine
	// failures propagate to the caller instead of being served slowly.
	// For tests and ablations.
	DisableFallback bool

	// Workers is the per-request parallelism of the execution engine:
	// each run schedules independent kernels over the unit DAG and
	// partitions large kernels across up to Workers goroutines (the
	// request's own goroutine included). Default exec.DefaultWorkers()
	// (GODISC_WORKERS or GOMAXPROCS); 1 keeps engines sequential. All
	// engines of a server share ONE worker pool, so helper goroutines are
	// bounded per server — not multiplied per concurrent request.
	Workers int

	// EngineCache, when non-nil, is a persistent engine cache consulted
	// (inside the singleflight) before compiling and populated after each
	// successful compilation, so a restarted server reaches full speed
	// without recompiling anything. Requires DecodeEngine/EncodeEngine to
	// translate between Engines and cache payloads; without codecs the
	// cache is inert.
	EngineCache *enginecache.Cache
	// CacheDir + CacheFingerprint name the EngineCache to open when one
	// was not provided directly. godisc.NewServer reads them and opens the
	// cache (New itself does not); it derives the fingerprint from the
	// compile options when unset. The fingerprint names the compiler
	// configuration; entries from a different fingerprint are quarantined,
	// never served. An unopenable directory disables persistence rather
	// than failing the server — a hostile cache dir must not take serving
	// down.
	CacheDir         string
	CacheFingerprint string
	// DecodeEngine rebuilds an Engine from a persisted cache payload;
	// EncodeEngine serializes one for persistence (engines that do not
	// serialize return an error, which skips the persist).
	DecodeEngine func(payload []byte) (Engine, error)
	EncodeEngine func(e Engine) ([]byte, error)

	// AsyncCompile changes how first-seen signatures are served: instead
	// of stalling the request behind the compiler, the request is answered
	// immediately through the interpreter fallback while a background
	// worker (bounded by CompileWorkers, charged against the memory
	// governor) compiles the engine; once it lands in the cache, later
	// requests run compiled. Persistent-cache entries still load inline —
	// decoding is milliseconds, so only true compilations go async.
	AsyncCompile bool
	// CompileWorkers bounds concurrent background compilations (default 2).
	CompileWorkers int

	// Observer, when non-nil, receives one hierarchical span per Infer
	// call (infer → cache-lookup/compile → exec → kernel/partition →
	// fallback/retry). The exec-layer children only appear when the
	// compiled engines were built with the same hook (exec.Options.Hook);
	// the request span rides the run context so the Engine interface
	// stays unchanged. Nil keeps the request path free of span work.
	Observer obs.Hook
	// Metrics, when non-nil, is the registry the serving counters,
	// latency histograms and queue gauges register on (served by
	// discserve at /metrics). Nil gives the server a private registry so
	// the Stats API works regardless.
	Metrics *obs.Registry
}

// Request is one inference call.
type Request struct {
	// Model names a registered builder.
	Model string
	// Inputs are the concrete tensors; any shapes consistent with the
	// model's symbolic parameter shapes are accepted.
	Inputs []*tensor.Tensor
	// Priority orders this request for admission under overload; the zero
	// value is PriorityBatch. See Priority.
	Priority Priority
}

// Response is the outcome of one admitted, executed request.
type Response struct {
	Outputs []*tensor.Tensor
	// Profile is this request's simulated execution profile.
	Profile *ral.Profiler
	// CacheHit reports whether the engine came from the cache (false
	// exactly for the request that paid for the compilation).
	CacheHit bool
	// Signature is the symbolic cache key the request mapped to.
	Signature string
	// QueueNs is wall time spent waiting for an execution slot.
	QueueNs int64
	// Fallback reports that the compiled engine failed (or was
	// quarantined) and the request was served — correctly but slowly —
	// by the reference interpreter.
	Fallback bool
	// Retries is how many times this request re-attempted its engine
	// after transient failures.
	Retries int
	// Batched reports that this response came from a coalesced engine run
	// shared with other requests; BatchSize is the total stacked batch
	// extent (rows) of that run. Both stay zero on the solo path.
	Batched   bool
	BatchSize int
	// Compiling reports that the signature's engine was not ready and is
	// being built in the background (Config.AsyncCompile): this response
	// came from the interpreter (Fallback is also set), and a later
	// request will find the compiled engine.
	Compiling bool
}

// OutcomeEvent describes the terminal outcome of one Infer call, emitted
// to the hook installed with SetOutcomeHook. The fleet layer uses it to
// drive per-model-version health: with fallback enabled a broken engine's
// failures surface as slow successes, so health must observe the engine
// verdict (Fallback/Hung/BreakerOpened), not just the returned error.
type OutcomeEvent struct {
	// Model is the request's registered model name (the fleet registers
	// "<model>:<version>", so version health can be attributed).
	Model string
	// Err is the error the Infer call returned (nil on success).
	Err error
	// Fallback and Compiling mirror the Response fields: the request was
	// served by the interpreter, and (for Compiling) only because the
	// engine is still being built — not because it failed.
	Fallback  bool
	Compiling bool
	// Hung reports the watchdog cancelled this request's engine run.
	Hung bool
	// BreakerOpened reports this request's failure tripped the engine's
	// circuit breaker open; BreakerShorted reports the request found it
	// already open and short-circuited to fallback.
	BreakerOpened  bool
	BreakerShorted bool
}

// Server is a concurrency-safe inference frontend over compiled engines.
type Server struct {
	cfg     Config
	compile CompileFunc
	cache   *ral.Cache
	// pool is the server-wide execution worker pool shared by every
	// compiled engine (nil when Workers resolves to 1).
	pool *exec.WorkerPool

	mu       sync.Mutex
	models   map[string]*modelEntry
	breakers map[string]*breaker
	closed   bool

	// inflight counts admitted Infer calls; Shutdown waits on it.
	inflight sync.WaitGroup

	// Async compilation state: compileSem bounds concurrent background
	// builds, compiling dedupes per key (under mu), compileWG is joined by
	// Shutdown so no build outlives the server.
	compileSem chan struct{}
	compiling  map[string]struct{}
	compileWG  sync.WaitGroup

	// forceCtx is cancelled by Shutdown when the drain deadline expires,
	// which cancels every in-flight request's derived context.
	forceCtx    context.Context
	forceCancel context.CancelFunc

	// adm owns execution slots and the governance policies (priority
	// shedding, deadline infeasibility, per-model quotas).
	adm *admitter
	// wd is the hung-request watchdog (nil when disabled).
	wd *watchdog
	// gov is the memory governor engines reserve against (nil when
	// MemoryBudgetBytes is 0).
	gov *ral.Governor
	// batch owns the dynamic-batching coalescing windows (nil when
	// MaxBatchSize ≤ 1).
	batch *batcher

	// outcomeHook, when set, receives one OutcomeEvent per Infer call
	// (guarded by mu; see SetOutcomeHook).
	outcomeHook func(OutcomeEvent)

	stats *collector
}

// modelEntry is one registered builder plus its lazily computed symbolic
// signature.
type modelEntry struct {
	name    string
	build   func() *graph.Graph
	sigOnce sync.Once
	sig     string
	sigErr  error
	// batchOnce/binfo cache the batchability analysis (batch.go), derived
	// from one throwaway graph like the signature.
	batchOnce sync.Once
	binfo     batchInfo
}

// signature builds one throwaway graph to derive the symbolic signature
// of the model's parameter shapes — the engine-cache key. Builders are
// deterministic, so the signature is computed once and reused.
func (m *modelEntry) signature() (string, error) {
	m.sigOnce.Do(func() {
		g := m.build()
		if g == nil {
			m.sigErr = fmt.Errorf("serve: model %q: builder returned nil graph", m.name)
			return
		}
		shapes := make([]symshape.Shape, len(g.Params))
		for i, p := range g.Params {
			shapes[i] = p.Shape
		}
		m.sig = g.Ctx.Signature(shapes)
	})
	return m.sig, m.sigErr
}

// New returns a server that compiles engines with the given function.
func New(cfg Config, compile CompileFunc) *Server {
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	switch {
	case cfg.QueueDepth == 0:
		cfg.QueueDepth = 64
	case cfg.QueueDepth < 0:
		cfg.QueueDepth = 0
	}
	switch {
	case cfg.MaxRetries == 0:
		cfg.MaxRetries = 2
	case cfg.MaxRetries < 0:
		cfg.MaxRetries = 0
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = time.Millisecond
	}
	switch {
	case cfg.BreakerThreshold == 0:
		cfg.BreakerThreshold = 3
	case cfg.BreakerThreshold < 0:
		cfg.BreakerThreshold = 0 // disabled
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = 10 * time.Second
	}
	if cfg.Workers <= 0 {
		cfg.Workers = exec.DefaultWorkers()
	}
	if cfg.MaxBatchSize > 1 && cfg.MaxLinger <= 0 {
		cfg.MaxLinger = lingerDefault
	}
	if cfg.CompileWorkers <= 0 {
		cfg.CompileWorkers = 2
	}
	cfg.EngineCache.SetMetrics(cfg.Metrics)
	var pool *exec.WorkerPool
	if cfg.Workers > 1 {
		pool = exec.NewWorkerPool(cfg.Workers)
	}
	forceCtx, forceCancel := context.WithCancel(context.Background())
	stats := newCollector(cfg.Metrics)
	s := &Server{
		cfg:         cfg,
		compile:     compile,
		cache:       ral.NewCache(),
		pool:        pool,
		models:      map[string]*modelEntry{},
		breakers:    map[string]*breaker{},
		compileSem:  make(chan struct{}, cfg.CompileWorkers),
		compiling:   map[string]struct{}{},
		forceCtx:    forceCtx,
		forceCancel: forceCancel,
		adm:         newAdmitter(cfg, stats),
		wd:          newWatchdog(cfg.WatchdogMultiple, cfg.WatchdogFloor),
		gov:         ral.NewGovernor(cfg.MemoryBudgetBytes),
		stats:       stats,
	}
	s.gov.Observe(cfg.Metrics)
	if cfg.MaxBatchSize > 1 {
		s.batch = newBatcher(s)
	}
	return s
}

// Governor returns the server's memory governor (nil when
// MemoryBudgetBytes is 0). Compile functions thread it into
// exec.Options.Governor so every engine run reserves its footprint
// against the shared budget.
func (s *Server) Governor() *ral.Governor { return s.gov }

// WorkerPool returns the server-wide execution worker pool that every
// compiled engine should share, or nil when the server is configured
// sequential (Workers: 1). Compile functions thread it into
// exec.Options.WorkerPool so concurrent requests multiplex one bounded
// set of helper goroutines instead of spawning Workers-1 each.
func (s *Server) WorkerPool() *exec.WorkerPool { return s.pool }

// SetOutcomeHook installs fn to receive one OutcomeEvent per Infer call,
// after the request fully resolves. The hook runs on the request
// goroutine, so it must be fast and must not call back into the server.
// A nil fn uninstalls the hook. Safe to call concurrently with traffic.
func (s *Server) SetOutcomeHook(fn func(OutcomeEvent)) {
	s.mu.Lock()
	s.outcomeHook = fn
	s.mu.Unlock()
}

// emitOutcome delivers ev to the installed hook, if any.
func (s *Server) emitOutcome(ev OutcomeEvent) {
	s.mu.Lock()
	fn := s.outcomeHook
	s.mu.Unlock()
	if fn != nil {
		fn(ev)
	}
}

// EngineCache returns the persistent engine cache the server serves from,
// or nil when engine persistence is disabled. Callers may Scan it at
// startup to report cache health before taking traffic.
func (s *Server) EngineCache() *enginecache.Cache { return s.cfg.EngineCache }

// Register adds a named model builder. Builders must be deterministic
// (same graph, same weights on every call) and are invoked lazily: once
// to derive the signature and once per compiled engine.
func (s *Server) Register(name string, build func() *graph.Graph) error {
	if build == nil {
		return fmt.Errorf("serve: model %q: nil builder", name)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.models[name]; dup {
		return fmt.Errorf("serve: model %q already registered", name)
	}
	s.models[name] = &modelEntry{name: name, build: build}
	return nil
}

// lookup returns the entry for a model name.
func (s *Server) lookup(name string) (*modelEntry, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.models[name]
	if !ok {
		return nil, fmt.Errorf("serve: unknown model %q", name)
	}
	return m, nil
}

// engine returns the cached engine for a model, compiling under the
// signature-keyed singleflight cache on a cold key. The cache key scopes
// the symbolic signature by model name, since two models with identical
// signatures still differ in weights. The whole lookup runs under a
// `cache-lookup` child of sp (nil when observability is off), with a
// `compile` grandchild exactly when this call pays for the compilation.
//
// On success the entry is pinned against eviction (the fleet layer's LRU
// must never remove an engine mid-run); the returned unpin must be called
// exactly once, as soon as the run completes. unpin is nil on error.
func (s *Server) engine(m *modelEntry, sp *obs.Span) (Engine, string, bool, func(), error) {
	sig, err := m.signature()
	if err != nil {
		return nil, "", false, nil, err
	}
	lsp := sp.Child("cache-lookup", obs.A("signature", sig))
	defer lsp.End()
	key := m.name + "@" + sig
	v, hit, err := s.cache.AcquireOrCompile(key, func() (any, error) {
		return s.buildEngine(m, sig, key, nil, lsp)
	})
	lsp.SetAttr("hit", fmt.Sprintf("%t", hit))
	if err != nil {
		return nil, sig, hit, nil, err
	}
	return v.(Engine), sig, hit, func() { s.cache.Unpin(key) }, nil
}

// buildEngine resolves an engine that is not in memory: the persistent
// cache first (a decode, not a compile), the compiler second — persisting
// the fresh engine for the next process. Runs inside the singleflight, so
// at most once per key at a time. g, when non-nil, is a pre-built graph
// the compile may consume (the async path builds one for its footprint
// estimate); nil means build fresh.
func (s *Server) buildEngine(m *modelEntry, sig, key string, g *graph.Graph, sp *obs.Span) (any, error) {
	if eng := s.loadPersisted(m, key, sp); eng != nil {
		return eng, nil
	}
	csp := sp.Child("compile", obs.A("signature", sig))
	defer csp.End()
	s.stats.compilation()
	if g == nil {
		g = m.build()
	}
	eng, err := s.compile(g)
	if err != nil {
		return nil, fmt.Errorf("serve: model %q (signature %s): %v: %w",
			m.name, sig, err, discerr.ErrCompileFailed)
	}
	s.persistEngine(m, key, eng)
	return eng, nil
}

// loadPersisted tries the persistent engine cache. Every failure mode —
// no cache, no codec, miss, corruption (quarantined by the cache),
// fingerprint mismatch, a payload that will not decode — returns nil:
// the caller compiles. A valid entry also pre-seeds the model's
// batchability verdict so a warm restart skips that analysis too.
func (s *Server) loadPersisted(m *modelEntry, key string, sp *obs.Span) Engine {
	ec, dec := s.cfg.EngineCache, s.cfg.DecodeEngine
	if ec == nil || dec == nil {
		return nil
	}
	ent, _ := ec.Load(key) // nil entry covers every failure; error is diagnostic
	if ent == nil {
		return nil
	}
	eng, err := dec(ent.Payload)
	if err != nil {
		// Checksum passed but the image didn't decode: a compiler change
		// the fingerprint failed to capture. Recompiling overwrites it.
		sp.SetAttr("decode_error", err.Error())
		return nil
	}
	if ent.BatchKnown {
		m.batchOnce.Do(func() {
			m.binfo = batchInfo{ok: ent.Batchable, reason: ent.BatchReason, maxRows: ent.BatchMaxRows}
		})
	}
	sp.SetAttr("persisted", "true")
	return eng
}

// persistEngine writes a freshly compiled engine to the persistent cache,
// best effort: an engine that does not serialize (test stubs) or a failed
// write (full disk, injected fault) is simply not persisted — the entry
// slot stays empty or keeps its previous content.
func (s *Server) persistEngine(m *modelEntry, key string, eng Engine) {
	ec, enc := s.cfg.EngineCache, s.cfg.EncodeEngine
	if ec == nil || enc == nil {
		return
	}
	payload, err := enc(eng)
	if err != nil || payload == nil {
		return
	}
	info := m.batchable()
	_ = ec.Persist(&enginecache.Entry{
		Key:          key,
		BatchKnown:   true,
		Batchable:    info.ok,
		BatchReason:  info.reason,
		BatchMaxRows: info.maxRows,
		Payload:      payload,
	})
}

// engineFast resolves an engine without ever blocking on a compilation:
// the in-memory cache, then an inline load from the persistent cache
// (decoding is milliseconds, not a compile). ready=false means no engine
// exists yet anywhere — the caller kicks a background compile and serves
// the request through the interpreter. A ready engine comes back pinned
// against eviction; unpin must be called once the run completes (nil when
// not ready).
func (s *Server) engineFast(m *modelEntry, sig, key string, sp *obs.Span) (eng Engine, hit, ready bool, unpin func()) {
	lsp := sp.Child("cache-lookup", obs.A("signature", sig), obs.A("async", "true"))
	defer lsp.End()
	if v, ok := s.cache.AcquirePeek(key); ok {
		lsp.SetAttr("hit", "true")
		return v.(Engine), true, true, func() { s.cache.Unpin(key) }
	}
	lsp.SetAttr("hit", "false")
	if eng := s.loadPersisted(m, key, lsp); eng != nil {
		// Put is first-binding-wins, so re-acquire what actually landed:
		// a racing loader's engine may have won the slot.
		s.cache.Put(key, eng)
		if v, ok := s.cache.AcquirePeek(key); ok {
			return v.(Engine), false, true, func() { s.cache.Unpin(key) }
		}
		// Evicted between Put and pin (vanishingly rare): serve this
		// request on the just-decoded engine without a pin — nothing
		// references the cache entry, so eviction cannot invalidate it.
		return eng, false, true, func() {}
	}
	return nil, false, false, nil
}

// compileAsync launches (at most one per key) a background build of an
// engine: persistent-cache load or full compilation under the in-memory
// singleflight, bounded by the compile-worker semaphore, charged against
// the memory governor for the constants the engine will hold resident,
// and drained by Shutdown. Failures feed the signature's circuit breaker
// exactly like request-path compile failures, so a signature that cannot
// compile quarantines instead of re-compiling on every request.
func (s *Server) compileAsync(m *modelEntry, sig, key string) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	if _, dup := s.compiling[key]; dup {
		s.mu.Unlock()
		return
	}
	s.compiling[key] = struct{}{}
	s.compileWG.Add(1)
	s.mu.Unlock()
	go func() {
		defer s.compileWG.Done()
		defer func() {
			s.mu.Lock()
			delete(s.compiling, key)
			s.mu.Unlock()
		}()
		select {
		case s.compileSem <- struct{}{}:
		case <-s.forceCtx.Done():
			return
		}
		defer func() { <-s.compileSem }()
		s.stats.compileInflight(1)
		defer s.stats.compileInflight(-1)
		var sp *obs.Span
		if s.cfg.Observer != nil {
			sp = s.cfg.Observer.StartSpan("compile-async",
				obs.A("model", m.name), obs.A("signature", sig))
			defer sp.End()
		}
		// Reserve the engine's resident constant bytes against the memory
		// governor while compiling, so a storm of first-seen signatures
		// cannot blow the budget; released once the engine is cached (its
		// runs reserve their own footprints).
		g := m.build()
		if s.gov != nil && g != nil {
			if est := graphConstBytes(g); est > 0 {
				release, err := s.gov.Reserve(s.forceCtx, est)
				if err != nil {
					// Budget pressure: drop this attempt; the next request
					// for the signature re-kicks the compile.
					sp.SetAttr("error", err.Error())
					return
				}
				defer release()
			}
		}
		_, _, err := s.cache.GetOrCompile(key, func() (any, error) {
			return s.buildEngine(m, sig, key, g, sp)
		})
		if err != nil {
			sp.SetAttr("error", err.Error())
			if br := s.breakerFor(key); br.failure(time.Now()) {
				s.stats.breakerOpened()
			}
		}
	}()
}

// graphConstBytes sums the constant payload bytes of a graph — the
// compile-time memory estimate charged to the governor by compileAsync.
func graphConstBytes(g *graph.Graph) int64 {
	var n int64
	for _, nd := range g.Nodes() {
		if nd.Lit != nil {
			n += int64(nd.Lit.Bytes())
		}
	}
	return n
}

// Warm compiles a model's engine eagerly (outside admission control), so
// the first real request finds a hot cache.
func (s *Server) Warm(model string) error {
	m, err := s.lookup(model)
	if err != nil {
		return err
	}
	_, _, _, unpin, err := s.engine(m, nil)
	if unpin != nil {
		unpin()
	}
	return err
}

// Infer runs one request end to end: admission, engine lookup/compile,
// execution — with the resilience policy wrapped around the engine. It is
// safe to call from any number of goroutines.
//
// Failure handling, in order:
//
//   - Transient errors (discerr.ErrTransient — e.g. a RAL allocation
//     hiccup, injected or real) are retried up to MaxRetries times with
//     jittered exponential backoff.
//   - Compile failures, recovered kernel panics (discerr.ErrKernelPanic)
//     and exhausted transient retries count against the engine's circuit
//     breaker and — unless DisableFallback — the request is re-executed
//     through the shape-generic reference interpreter: it succeeds,
//     slowly, and FallbackRuns is recorded.
//   - BreakerThreshold consecutive failures quarantine the
//     (model, signature) engine: requests short-circuit to fallback
//     (discerr.ErrEngineQuarantined classifies the cause) until the
//     cooldown elapses and a half-open probe closes the breaker again.
//   - Shape mismatches and unknown models are the caller's fault: they
//     propagate immediately with no retry, breaker penalty, or fallback.
//
// Governance, before any of the above:
//
//   - Admission applies the priority/deadline/quota policy: queue-full
//     rejections and priority sheds wrap ErrQueueFull, provably late
//     requests ErrDeadlineInfeasible, over-quota models ErrQuotaExceeded.
//   - A run that trips the memory governor's budget fails with
//     ErrMemoryBudget and propagates immediately — it is load shedding,
//     not an engine fault, so no retry, breaker penalty or fallback.
//   - The watchdog cancels a run exceeding its signature's historical
//     latency envelope (ErrHungRequest) and recovers it through the
//     normal breaker/fallback path.
//
// Errors wrap the discerr sentinels: ErrQueueFull (rejected by
// admission), ErrDeadlineInfeasible, ErrQuotaExceeded, ErrMemoryBudget,
// ErrHungRequest, ErrServerClosed, ErrCompileFailed, ErrShapeMismatch,
// ErrKernelPanic, ErrTransient, ErrEngineQuarantined, plus ctx.Err() when
// the request's context expires while queued or mid-run.
func (s *Server) Infer(ctx context.Context, req *Request) (resp *Response, retErr error) {
	s.stats.request()
	// One outcome event per request, fired after the result is final —
	// the fleet's rollout controller keys per-version health off it.
	outcome := OutcomeEvent{Model: req.Model}
	defer func() {
		outcome.Err = retErr
		if resp != nil {
			outcome.Fallback = resp.Fallback
			outcome.Compiling = resp.Compiling
		}
		s.emitOutcome(outcome)
	}()
	// Root span of this request's trace. When no Observer is configured
	// sp stays nil and every span call below is one nil branch.
	var sp *obs.Span
	if s.cfg.Observer != nil {
		elems := 0
		for _, in := range req.Inputs {
			elems += in.Numel()
		}
		attrs := []obs.Attr{
			obs.A("model", req.Model), obs.A("shape_bucket", obs.ShapeBucket(elems)),
		}
		// Nest under a caller-provided span (the fleet HTTP front-end puts
		// its request span on the context) so HTTP traces contain the full
		// infer → exec tree; otherwise this is the trace root.
		if parent := obs.SpanFromContext(ctx); parent != nil {
			sp = parent.Child("infer", attrs...)
		} else {
			sp = s.cfg.Observer.StartSpan("infer", attrs...)
		}
		defer func() {
			if retErr != nil {
				sp.SetAttr("error", retErr.Error())
			} else if resp != nil {
				sp.SetAttr("cache_hit", fmt.Sprintf("%t", resp.CacheHit))
				if resp.Fallback {
					sp.SetAttr("fallback", "true")
				}
			}
			sp.End()
		}()
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.stats.rejected()
		return nil, fmt.Errorf("serve: %w", discerr.ErrServerClosed)
	}
	s.inflight.Add(1)
	s.mu.Unlock()
	defer s.inflight.Done()

	// Derive the request context so Shutdown's force-cancel reaches
	// every in-flight request.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	stop := context.AfterFunc(s.forceCtx, cancel)
	defer stop()

	m, err := s.lookup(req.Model)
	if err != nil {
		s.stats.failed()
		return nil, err
	}

	// Dynamic batching: non-Interactive requests to a provably
	// row-independent model may coalesce with concurrent same-layout
	// requests into one engine run (batch.go). handled=true means the
	// batch path resolved the request (success, or context expiry while
	// lingering); otherwise it falls through to the solo path below —
	// including every batch-side failure, so retries, breaker accounting
	// and fallback happen exactly once per request, here.
	if s.batch != nil && req.Priority < PriorityInteractive {
		if resp, berr, handled := s.batch.join(ctx, sp, m, req); handled {
			return resp, berr
		}
	}

	queueStart := time.Now()
	qsp := sp.Child("admit", obs.A("priority", req.Priority.String()))
	release, err := s.adm.admit(ctx, m.name, req.Priority)
	qsp.End()
	if err != nil {
		// The admitter pre-counts its own rejections by reason; context
		// expiry while queued is the only outcome classified here.
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			s.stats.canceled()
		}
		return nil, err
	}
	defer release()
	queueNs := time.Since(queueStart).Nanoseconds()

	sig, err := m.signature()
	if err != nil {
		s.stats.failed()
		return nil, err
	}
	key := m.name + "@" + sig
	br := s.breakerFor(key)
	ok, probe := br.allow(time.Now())
	if !ok {
		s.stats.breakerShorted()
		outcome.BreakerShorted = true
		cause := fmt.Errorf("serve: model %q (signature %s): %w", m.name, sig, discerr.ErrEngineQuarantined)
		return s.finish(s.fallback(ctx, sp, m, req, sig, queueNs, 0, cause))
	}
	// A half-open probe that exits below without a verdict (cancelled,
	// invalid inputs, budget shed, engine still compiling) frees its slot
	// here; a resolved probe makes this a no-op.
	defer br.release(probe)

	var lastErr error
	retries := 0
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			retries++
			s.stats.retry()
			rsp := sp.Child("retry", obs.A("attempt", fmt.Sprintf("%d", attempt)))
			err := s.backoff(ctx, attempt)
			rsp.End()
			if err != nil {
				s.stats.canceled()
				return nil, err
			}
		}
		var eng Engine
		var hit bool
		var unpin func()
		var err error
		if s.cfg.AsyncCompile && !s.cfg.DisableFallback {
			var ready bool
			eng, hit, ready, unpin = s.engineFast(m, sig, key, sp)
			if !ready {
				// First-seen signature: kick the background build and
				// answer now through the interpreter — the request never
				// stalls behind the compiler. A probe has no verdict to
				// give, so its slot is freed before the slow fallback.
				s.compileAsync(m, sig, key)
				s.stats.cacheMiss()
				br.release(probe)
				resp, ferr := s.fallback(ctx, sp, m, req, sig, queueNs, retries, nil)
				if resp != nil {
					resp.Compiling = true
				}
				return s.finish(resp, ferr)
			}
		} else {
			eng, _, hit, unpin, err = s.engine(m, sp)
		}
		if err != nil {
			lastErr = err
			if errors.Is(err, discerr.ErrTransient) && attempt < s.cfg.MaxRetries && ctx.Err() == nil {
				continue
			}
			break
		}
		if hit {
			s.stats.cacheHit()
		} else {
			s.stats.cacheMiss()
		}

		// Run the engine under the watchdog: once the signature has
		// latency history, a run exceeding WatchdogMultiple × its moving
		// average is cancelled with cause ErrHungRequest and recovered
		// through the breaker/fallback path below.
		runStart := time.Now()
		rctx := obs.ContextWithSpan(ctx, sp)
		var wdCancel context.CancelCauseFunc
		var wdTimer *time.Timer
		if lim, armed := s.wd.limit(key); armed {
			var wc context.Context
			wc, wdCancel = context.WithCancelCause(rctx)
			cancelCause, limit := wdCancel, lim
			wdTimer = time.AfterFunc(lim, func() {
				cancelCause(fmt.Errorf("serve: run exceeded watchdog limit %v: %w",
					limit, discerr.ErrHungRequest))
			})
			rctx = wc
		}
		res, err := runEngine(rctx, eng, req.Inputs)
		// The pin window is acquire → run complete: everything below only
		// classifies the outcome, so eviction is safe again from here.
		unpin()
		hung := false
		if wdCancel != nil {
			wdTimer.Stop()
			hung = errors.Is(context.Cause(rctx), discerr.ErrHungRequest)
			wdCancel(nil)
		}
		wall := time.Since(runStart)
		if err == nil {
			// Healthy compiled runs feed both the admission-time cost
			// estimator and the signature's watchdog envelope.
			s.adm.est.observe(wall)
			s.wd.observe(key, wall)
			br.success()
			s.stats.completed(res.Profile.SimulatedNs)
			s.stats.observeSignature(m.name, sig, res.Profile.SimulatedNs)
			return &Response{
				Outputs:   res.Outputs,
				Profile:   res.Profile,
				CacheHit:  hit,
				Signature: sig,
				QueueNs:   queueNs,
				Retries:   retries,
			}, nil
		}
		if hung && ctx.Err() == nil {
			s.stats.watchdogFired()
			outcome.Hung = true
			lastErr = fmt.Errorf("serve: model %q (signature %s): run cancelled by watchdog after %v: %w",
				m.name, sig, wall, discerr.ErrHungRequest)
			break // hung engines go to the breaker + fallback, not retry
		}
		if ctx.Err() != nil {
			s.stats.canceled()
			return nil, err
		}
		if errors.Is(err, discerr.ErrShapeMismatch) {
			// The caller's inputs are invalid; the engine is fine.
			s.stats.failed()
			return nil, err
		}
		if errors.Is(err, discerr.ErrMemoryBudget) {
			// Budget pressure is load shedding, not an engine fault: no
			// retry, no breaker penalty, and no fallback (the interpreter
			// would allocate the same buffers).
			s.stats.memoryRejected()
			return nil, err
		}
		lastErr = err
		if errors.Is(err, discerr.ErrKernelPanic) {
			s.stats.kernelPanic()
			break // a panicking kernel may be deterministic: don't retry
		}
		if errors.Is(err, discerr.ErrTransient) && attempt < s.cfg.MaxRetries {
			continue
		}
		break
	}

	if br.failure(time.Now()) {
		s.stats.breakerOpened()
		outcome.BreakerOpened = true
	}
	return s.finish(s.fallback(ctx, sp, m, req, sig, queueNs, retries, lastErr))
}

// finish translates a fallback outcome into the final stats bucket.
func (s *Server) finish(resp *Response, err error) (*Response, error) {
	if err == nil {
		return resp, nil
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		s.stats.canceled()
	} else {
		s.stats.failed()
	}
	return nil, err
}

// runEngine invokes the engine with panic isolation: a panicking kernel
// (or engine implementation) becomes an error wrapping
// discerr.ErrKernelPanic instead of killing the process. exec.Executable
// recovers its own panics too; this guards non-exec Engine
// implementations as a second line.
func runEngine(ctx context.Context, eng Engine, inputs []*tensor.Tensor) (res *exec.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("serve: engine panicked: %v: %w", r, discerr.ErrKernelPanic)
		}
	}()
	return eng.RunContext(ctx, inputs)
}

// breakerFor returns (lazily creating) the circuit breaker for an engine
// key, or nil when breakers are disabled.
func (s *Server) breakerFor(key string) *breaker {
	if s.cfg.BreakerThreshold <= 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.breakers[key]
	if !ok {
		b = newBreaker(s.cfg.BreakerThreshold, s.cfg.BreakerCooldown)
		s.breakers[key] = b
	}
	return b
}

// backoff sleeps the jittered exponential delay before retry `attempt`
// (1-based), honouring cancellation.
func (s *Server) backoff(ctx context.Context, attempt int) error {
	d := s.cfg.RetryBackoff << (attempt - 1)
	if max := 250 * time.Millisecond; d > max {
		d = max
	}
	// Jitter into [d/2, d) so synchronized failures don't retry in
	// lockstep.
	d = d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// fallbackNodeNs is the per-op host overhead charged to fallback runs:
// interpreter dispatch is framework-speed, not compiled-speed, which is
// exactly the degradation the paper's framework fallback accepts.
const fallbackNodeNs = 25000

// fallback serves the request through the shape-generic reference
// interpreter — the paper's framework-fallback path. The request
// succeeds with correct outputs but pays eager per-op dispatch costs;
// `cause` records why the compiled path was abandoned.
func (s *Server) fallback(ctx context.Context, sp *obs.Span, m *modelEntry, req *Request, sig string, queueNs int64, retries int, cause error) (*Response, error) {
	if s.cfg.DisableFallback {
		return nil, cause
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	fsp := sp.Child("fallback")
	if fsp != nil && cause != nil {
		fsp.SetAttr("cause", cause.Error())
	}
	defer fsp.End()
	g := m.build()
	outs, err := graph.EvaluateContext(ctx, g, req.Inputs)
	if err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			// Cancelled (or force-drained) mid-interpretation: classify as
			// a context outcome, not a fallback failure.
			return nil, ctxErr
		}
		return nil, fmt.Errorf("serve: fallback for %q also failed: %v (compiled path: %w)", m.name, err, cause)
	}
	prof := ral.NewProfiler()
	prof.Host(float64(len(g.Toposort())) * fallbackNodeNs)
	s.stats.fallback(prof.SimulatedNs)
	s.stats.observeSignature(m.name, sig, prof.SimulatedNs)
	return &Response{
		Outputs:   outs,
		Profile:   prof,
		Signature: sig,
		QueueNs:   queueNs,
		Fallback:  true,
		Retries:   retries,
	}, nil
}

// Stats returns a point-in-time snapshot of serving counters.
func (s *Server) Stats() Stats {
	st := s.stats.snapshot()
	_, _, st.Engines = s.cache.Stats()
	if ec := s.cfg.EngineCache; ec != nil {
		ecs := ec.Stats()
		st.EngineLoads = ecs.Hits
		st.EnginePersists = ecs.Persists
		st.EngineCorrupt = ecs.Corrupt
		st.EngineMismatch = ecs.Mismatch
	}
	if s.gov != nil {
		gs := s.gov.Stats()
		st.MemBudgetBytes = gs.BudgetBytes
		st.MemReservedBytes = gs.ReservedBytes
		st.MemHighWaterBytes = gs.HighWaterBytes
		st.MemWaits = gs.Waits
	}
	return st
}

// Shutdown gracefully drains the server: it stops admitting new requests
// (late Infer calls fail with discerr.ErrServerClosed), waits for
// in-flight requests to finish, and — if ctx expires first — force-cancels
// them, then waits for them to unwind and release their resources. It
// returns nil on a clean drain or ctx.Err() when the deadline forced
// cancellation. Safe to call multiple times and from multiple goroutines.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		// Background compiles are drained too: a build must not race the
		// process teardown (a half-written cache entry is recoverable, but
		// there is no reason to create one on a clean shutdown).
		s.compileWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		// Deadline expired: cancel every in-flight request's context and
		// wait for them to unwind (cancellation is observed between
		// kernel launches, so this is prompt) — buffers must be back in
		// their pools before we return.
		s.forceCancel()
		<-done
		return ctx.Err()
	}
}

// Close is Shutdown with no deadline: it blocks until every in-flight
// request has drained. Later Infer calls fail with discerr.ErrServerClosed.
func (s *Server) Close() {
	s.Shutdown(context.Background())
}
