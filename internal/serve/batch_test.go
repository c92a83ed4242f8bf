package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"godisc/internal/exec"
	"godisc/internal/faultinject"
	"godisc/internal/graph"
	"godisc/internal/randgraph"
	"godisc/internal/symshape"
	"godisc/internal/tensor"
)

// bitsEqual asserts exact equality — batched and solo runs must agree to
// the bit, not within a tolerance.
func bitsEqual(t *testing.T, got, want *tensor.Tensor, label string) {
	t.Helper()
	if !tensor.ShapeEq(got.Shape(), want.Shape()) {
		t.Fatalf("%s: shape %v != %v", label, got.Shape(), want.Shape())
	}
	g, w := got.F32(), want.F32()
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("%s: element %d: %x != %x (batched vs solo must be bit-identical)",
				label, i, g[i], w[i])
		}
	}
}

// TestBatchAnalysis exercises the conservative batchability rules: accept
// only graphs provably row-independent along dim 0.
func TestBatchAnalysis(t *testing.T) {
	cases := []struct {
		name  string
		build func() *graph.Graph
		ok    bool
	}{
		{"mlp", buildMLP, true},
		{"softmaxnet", buildSoftmaxNet, true},
		{"randgraph", func() *graph.Graph { return randgraph.Build(7, 6, 8) }, true},
		{"static-batch", func() *graph.Graph {
			g := graph.New("static")
			x := g.Parameter("x", tensor.F32, g.Ctx.StaticShape(4, 8))
			g.SetOutputs(g.Relu(x))
			return g
		}, false},
		{"params-disagree", func() *graph.Graph {
			g := graph.New("disagree")
			b, c := g.Ctx.NewDim("B"), g.Ctx.NewDim("C")
			x := g.Parameter("x", tensor.F32, symshape.Shape{b, g.Ctx.StaticDim(4)})
			y := g.Parameter("y", tensor.F32, symshape.Shape{c, g.Ctx.StaticDim(4)})
			g.SetOutputs(g.Add(x, g.Sum(y, []int{0}, true)))
			return g
		}, false},
		{"divisible-batch", func() *graph.Graph {
			g := graph.New("div")
			b := g.Ctx.NewDim("B")
			g.Ctx.DeclareDivisible(b, 2)
			x := g.Parameter("x", tensor.F32, symshape.Shape{b, g.Ctx.StaticDim(4)})
			g.SetOutputs(g.Relu(x))
			return g
		}, false},
		{"batch-reduced-keepdims", func() *graph.Graph {
			// mean over the batch axis broadcast back: output shape looks
			// batch-major but every row depends on every other.
			g := graph.New("reduce0")
			b := g.Ctx.NewDim("B")
			x := g.Parameter("x", tensor.F32, symshape.Shape{b, g.Ctx.StaticDim(4)})
			g.SetOutputs(g.Sub(x, g.Mean(x, []int{0}, true)))
			return g
		}, false},
		{"softmax-rank1", func() *graph.Graph {
			g := graph.New("sm1")
			b := g.Ctx.NewDim("B")
			x := g.Parameter("x", tensor.F32, symshape.Shape{b})
			g.SetOutputs(g.Softmax(x))
			return g
		}, false},
		{"batch-folded-by-merge", func() *graph.Graph {
			g := graph.New("merge")
			b := g.Ctx.NewDim("B")
			x := g.Parameter("x", tensor.F32, symshape.Shape{b, g.Ctx.StaticDim(2), g.Ctx.StaticDim(4)})
			g.SetOutputs(g.MergeDims(x, 0, 2))
			return g
		}, false},
		{"transposed-batch", func() *graph.Graph {
			g := graph.New("tr")
			b := g.Ctx.NewDim("B")
			x := g.Parameter("x", tensor.F32, symshape.Shape{b, g.Ctx.StaticDim(4)})
			g.SetOutputs(g.Transpose(x, 1, 0))
			return g
		}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			info := analyzeBatchable(tc.build())
			if info.ok != tc.ok {
				t.Fatalf("analyzeBatchable(%s): ok=%v (reason %q), want %v",
					tc.name, info.ok, info.reason, tc.ok)
			}
		})
	}
}

// TestBatchAnalysisMaxRows: the stacked extent is capped by the batch
// symbol's declared upper bound.
func TestBatchAnalysisMaxRows(t *testing.T) {
	info := analyzeBatchable(buildMLP()) // DeclareRange(b, 1, 128)
	if !info.ok || info.maxRows != 128 {
		t.Fatalf("mlp batchInfo = %+v, want ok with maxRows 128", info)
	}
}

// TestBatchDisabledByDefault: the zero Config (and MaxBatchSize 1) must
// leave the batcher off entirely.
func TestBatchDisabledByDefault(t *testing.T) {
	for _, cfg := range []Config{{}, {MaxBatchSize: 1}, {MaxBatchSize: -3}} {
		s := New(cfg, realCompile(nil))
		if s.batch != nil {
			t.Fatalf("Config %+v built a batcher; batching must be opt-in", cfg)
		}
		s.Close()
	}
	s := New(Config{MaxBatchSize: 8}, realCompile(nil))
	if s.batch == nil {
		t.Fatal("MaxBatchSize 8 did not enable batching")
	}
	if s.cfg.MaxLinger != lingerDefault {
		t.Fatalf("MaxLinger defaulted to %v, want %v", s.cfg.MaxLinger, lingerDefault)
	}
	s.Close()
}

// TestBatchCoalesces: concurrent same-layout requests fill a window and
// are served by ONE engine run whose scattered outputs are bit-identical
// to solo runs.
func TestBatchCoalesces(t *testing.T) {
	s := New(Config{MaxConcurrent: 8, MaxBatchSize: 8, MaxLinger: 200 * time.Millisecond},
		realCompile(nil))
	defer s.Close()
	if err := s.Register("mlp", buildMLP); err != nil {
		t.Fatal(err)
	}
	// Solo reference server: identical pipeline, batching off.
	solo := New(Config{MaxConcurrent: 8}, realCompile(nil))
	defer solo.Close()
	if err := solo.Register("mlp", buildMLP); err != nil {
		t.Fatal(err)
	}

	// 4 requests × 2 rows = MaxBatchSize: the window flushes on full, so
	// the test does not depend on linger timing.
	r := tensor.NewRNG(3)
	const n = 4
	inputs := make([]*tensor.Tensor, n)
	for i := range inputs {
		inputs[i] = tensor.RandN(r, 0.5, 2, 12)
	}
	var wg sync.WaitGroup
	resps := make([]*Response, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resps[i], errs[i] = s.Infer(context.Background(),
				&Request{Model: "mlp", Inputs: []*tensor.Tensor{inputs[i]}})
		}(i)
	}
	wg.Wait()

	batched := 0
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		want, err := solo.Infer(context.Background(),
			&Request{Model: "mlp", Inputs: []*tensor.Tensor{inputs[i]}})
		if err != nil {
			t.Fatal(err)
		}
		bitsEqual(t, resps[i].Outputs[0], want.Outputs[0], "request")
		if resps[i].Batched {
			batched++
			if resps[i].BatchSize < 4 {
				t.Fatalf("request %d: BatchSize %d, want >= 4 stacked rows", i, resps[i].BatchSize)
			}
		}
	}
	// All four arrived while the first window was open (200ms linger), so
	// every request must have coalesced.
	if batched != n {
		t.Fatalf("%d/%d requests batched, want all (window was open for 200ms)", batched, n)
	}
	st := s.Stats()
	if st.BatchedRuns < 1 || st.BatchedRequests != int64(n) {
		t.Fatalf("stats: BatchedRuns=%d BatchedRequests=%d, want >=1 and %d", st.BatchedRuns, st.BatchedRequests, n)
	}
	if st.Completed != int64(n) {
		t.Fatalf("stats: Completed=%d, want %d (batched requests count as completions)", st.Completed, n)
	}
}

// TestBatchSingleMemberServedSolo: a lone request whose window expires is
// handed back to the solo path — correct result, Batched=false, and the
// solo machinery (estimator feeding, stats) untouched by the batch layer.
func TestBatchSingleMemberServedSolo(t *testing.T) {
	s := New(Config{MaxConcurrent: 4, MaxBatchSize: 16, MaxLinger: 20 * time.Millisecond},
		realCompile(nil))
	defer s.Close()
	if err := s.Register("mlp", buildMLP); err != nil {
		t.Fatal(err)
	}
	r := tensor.NewRNG(5)
	start := time.Now()
	resp, err := s.Infer(context.Background(),
		&Request{Model: "mlp", Inputs: []*tensor.Tensor{tensor.RandN(r, 0.5, 3, 12)}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Batched {
		t.Fatal("lone request reported Batched=true")
	}
	if wall := time.Since(start); wall < 20*time.Millisecond {
		t.Fatalf("lone request returned in %v, before the 20ms linger window flushed", wall)
	}
	if st := s.Stats(); st.BatchedRuns != 0 || st.Completed != 1 {
		t.Fatalf("stats: %+v, want zero BatchedRuns and one completion", st)
	}
}

// TestBatchInteractiveBypassesLinger: Interactive requests never enter the
// coalescing window — with a 2s linger a bypassing request must return in
// a fraction of that.
func TestBatchInteractiveBypassesLinger(t *testing.T) {
	s := New(Config{MaxConcurrent: 4, MaxBatchSize: 16, MaxLinger: 2 * time.Second},
		realCompile(nil))
	defer s.Close()
	if err := s.Register("mlp", buildMLP); err != nil {
		t.Fatal(err)
	}
	r := tensor.NewRNG(6)
	start := time.Now()
	resp, err := s.Infer(context.Background(), &Request{
		Model:    "mlp",
		Inputs:   []*tensor.Tensor{tensor.RandN(r, 0.5, 2, 12)},
		Priority: PriorityInteractive,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Batched {
		t.Fatal("Interactive request was batched")
	}
	if wall := time.Since(start); wall > time.Second {
		t.Fatalf("Interactive request took %v; it must bypass the 2s linger window", wall)
	}
}

// TestBatchDeadlineTightensFlush: a joining member with a deadline shorter
// than the window's remaining linger pulls the flush forward — the batch
// runs early and both members are served before the deadline, coalesced.
func TestBatchDeadlineTightensFlush(t *testing.T) {
	s := New(Config{MaxConcurrent: 4, MaxBatchSize: 16, MaxLinger: 2 * time.Second},
		realCompile(nil))
	defer s.Close()
	if err := s.Register("mlp", buildMLP); err != nil {
		t.Fatal(err)
	}
	if err := s.Warm("mlp"); err != nil {
		t.Fatal(err)
	}
	r := tensor.NewRNG(7)
	in1 := tensor.RandN(r, 0.5, 2, 12)
	in2 := tensor.RandN(r, 0.5, 2, 12)

	var wg sync.WaitGroup
	var resp1, resp2 *Response
	var err1, err2 error
	start := time.Now()
	wg.Add(2)
	go func() { // opens the window with the full 2s linger
		defer wg.Done()
		resp1, err1 = s.Infer(context.Background(),
			&Request{Model: "mlp", Inputs: []*tensor.Tensor{in1}})
	}()
	go func() { // joins with a 300ms deadline: the window must flush early
		defer wg.Done()
		time.Sleep(30 * time.Millisecond) // let the first request open the window
		ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
		defer cancel()
		resp2, err2 = s.Infer(ctx, &Request{Model: "mlp", Inputs: []*tensor.Tensor{in2}})
	}()
	wg.Wait()
	wall := time.Since(start)

	if err1 != nil || err2 != nil {
		t.Fatalf("errs: %v / %v", err1, err2)
	}
	if wall > time.Second {
		t.Fatalf("batch held %v; the 300ms member deadline must pull the flush forward", wall)
	}
	if !resp1.Batched || !resp2.Batched {
		t.Fatalf("Batched = %v/%v, want both coalesced", resp1.Batched, resp2.Batched)
	}
}

// TestBatchAbandonOnCancel: a member whose context is cancelled mid-linger
// abandons the window and returns promptly with the context error — never
// silently late. The remaining member is still served.
func TestBatchAbandonOnCancel(t *testing.T) {
	s := New(Config{MaxConcurrent: 4, MaxBatchSize: 16, MaxLinger: 400 * time.Millisecond},
		realCompile(nil))
	defer s.Close()
	if err := s.Register("mlp", buildMLP); err != nil {
		t.Fatal(err)
	}
	r := tensor.NewRNG(8)
	var wg sync.WaitGroup
	var respA *Response
	var errA, errB error
	var wallB time.Duration
	wg.Add(2)
	go func() {
		defer wg.Done()
		respA, errA = s.Infer(context.Background(),
			&Request{Model: "mlp", Inputs: []*tensor.Tensor{tensor.RandN(r, 0.5, 2, 12)}})
	}()
	go func() {
		defer wg.Done()
		time.Sleep(20 * time.Millisecond)
		ctx, cancel := context.WithCancel(context.Background())
		go func() { time.Sleep(60 * time.Millisecond); cancel() }()
		start := time.Now()
		_, errB = s.Infer(ctx, &Request{Model: "mlp",
			Inputs: []*tensor.Tensor{tensor.RandN(tensor.NewRNG(9), 0.5, 2, 12)}})
		wallB = time.Since(start)
	}()
	wg.Wait()

	if !errors.Is(errB, context.Canceled) {
		t.Fatalf("cancelled member returned %v, want context.Canceled", errB)
	}
	if wallB > 300*time.Millisecond {
		t.Fatalf("cancelled member took %v; it must abandon the window promptly", wallB)
	}
	if errA != nil {
		t.Fatalf("surviving member failed: %v", errA)
	}
	if respA.Batched {
		t.Fatal("surviving lone member reported Batched=true")
	}
}

// TestBatchDeadlineInfeasibleGoesSolo: when the moving execution estimate
// says lingering would make the deadline infeasible, the request skips the
// window entirely and is served solo, on time.
func TestBatchDeadlineInfeasibleGoesSolo(t *testing.T) {
	s := New(Config{MaxConcurrent: 32, MaxBatchSize: 16, MaxLinger: 2 * time.Second},
		realCompile(nil))
	defer s.Close()
	if err := s.Register("mlp", buildMLP); err != nil {
		t.Fatal(err)
	}
	// Feed the estimator a 100ms execution profile; with the 1.25 margin,
	// any deadline under 125ms leaves no room to linger.
	for i := 0; i < estMinSamples; i++ {
		s.adm.est.observe(100 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 124*time.Millisecond)
	defer cancel()
	r := tensor.NewRNG(10)
	start := time.Now()
	resp, err := s.Infer(ctx, &Request{Model: "mlp",
		Inputs: []*tensor.Tensor{tensor.RandN(r, 0.5, 2, 12)}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Batched {
		t.Fatal("infeasible-slack request entered the batch window")
	}
	if wall := time.Since(start); wall > time.Second {
		t.Fatalf("request took %v, must have gone solo immediately", wall)
	}
}

// TestBatchOverflowOpensNewWindow: a joiner that would push the window
// past MaxBatchSize flushes it and opens a fresh one — both requests are
// served correctly.
func TestBatchOverflowOpensNewWindow(t *testing.T) {
	s := New(Config{MaxConcurrent: 4, MaxBatchSize: 4, MaxLinger: 60 * time.Millisecond},
		realCompile(nil))
	defer s.Close()
	if err := s.Register("mlp", buildMLP); err != nil {
		t.Fatal(err)
	}
	r := tensor.NewRNG(11)
	inputs := []*tensor.Tensor{tensor.RandN(r, 0.5, 3, 12), tensor.RandN(r, 0.5, 3, 12)}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = s.Infer(context.Background(), &Request{Model: "mlp",
				Inputs: []*tensor.Tensor{inputs[i]}})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
}

// TestBatchRowsAtCapGoSolo: a request that alone fills MaxBatchSize has
// nothing to gain from lingering and is served solo immediately.
func TestBatchRowsAtCapGoSolo(t *testing.T) {
	s := New(Config{MaxConcurrent: 4, MaxBatchSize: 4, MaxLinger: 2 * time.Second},
		realCompile(nil))
	defer s.Close()
	if err := s.Register("mlp", buildMLP); err != nil {
		t.Fatal(err)
	}
	r := tensor.NewRNG(12)
	start := time.Now()
	resp, err := s.Infer(context.Background(), &Request{Model: "mlp",
		Inputs: []*tensor.Tensor{tensor.RandN(r, 0.5, 4, 12)}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Batched {
		t.Fatal("cap-filling request reported Batched=true")
	}
	if wall := time.Since(start); wall > time.Second {
		t.Fatalf("cap-filling request lingered for %v", wall)
	}
}

// TestBatchEngineFailureFallsBackSolo: when the batched run fails, every
// member re-enters the solo path and is recovered by the ordinary
// resilience machinery (here: interpreter fallback after kernel faults),
// with exact per-request accounting.
func TestBatchEngineFailureFallsBackSolo(t *testing.T) {
	inj := faultinject.New(21).Arm(faultinject.SiteKernelLaunch, faultinject.ModeError, 1)
	s := New(Config{MaxConcurrent: 8, MaxBatchSize: 8, MaxLinger: 150 * time.Millisecond,
		MaxRetries: -1}, faultyCompile(inj))
	defer s.Close()
	if err := s.Register("mlp", buildMLP); err != nil {
		t.Fatal(err)
	}
	r := tensor.NewRNG(13)
	const n = 4
	inputs := make([]*tensor.Tensor, n)
	for i := range inputs {
		inputs[i] = tensor.RandN(r, 0.5, 2, 12)
	}
	var wg sync.WaitGroup
	resps := make([]*Response, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resps[i], errs[i] = s.Infer(context.Background(), &Request{Model: "mlp",
				Inputs: []*tensor.Tensor{inputs[i]}})
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if !resps[i].Fallback {
			t.Fatalf("request %d: expected interpreter fallback after batched engine failure", i)
		}
		if resps[i].Batched {
			t.Fatalf("request %d: failed batch must not report Batched=true", i)
		}
	}
	st := s.Stats()
	if st.FallbackRuns != n || st.Completed != n {
		t.Fatalf("stats: FallbackRuns=%d Completed=%d, want %d each", st.FallbackRuns, st.Completed, n)
	}
	if st.BatchedRuns != 0 {
		t.Fatalf("stats: BatchedRuns=%d after a failed batch, want 0", st.BatchedRuns)
	}
}

// TestBatchProbeReleasedOnHandBack: a batch admitted as the half-open
// probe that hands its members back to the solo path gives no verdict on
// the engine. The probe slot must be freed for the members' solo runs, so
// the healed engine closes the breaker instead of staying quarantined.
func TestBatchProbeReleasedOnHandBack(t *testing.T) {
	var engineCalls int32
	s := New(Config{
		MaxConcurrent: 4, MaxBatchSize: 4, MaxLinger: time.Second, MaxRetries: -1,
		BreakerThreshold: 1, BreakerCooldown: 20 * time.Millisecond,
	}, func(*graph.Graph) (Engine, error) {
		return engineFunc(func(context.Context, []*tensor.Tensor) (*exec.Result, error) {
			// The opening solo run and the batched probe fail; the engine
			// is healthy from then on.
			if atomic.AddInt32(&engineCalls, 1) <= 2 {
				panic("kernel crashed")
			}
			return okResult()
		}), nil
	})
	defer s.Close()
	if err := s.Register("mlp", buildMLP); err != nil {
		t.Fatal(err)
	}
	in := tensor.RandN(tensor.NewRNG(5), 0.5, 2, 12)
	solo := &Request{Model: "mlp", Inputs: []*tensor.Tensor{in}, Priority: PriorityInteractive}

	if resp, err := s.Infer(context.Background(), solo); err != nil || !resp.Fallback {
		t.Fatalf("opening failure: resp=%+v err=%v", resp, err)
	}
	time.Sleep(25 * time.Millisecond) // past the cooldown: half-open

	// Two 2-row requests fill the 4-row window: the batch takes the probe,
	// its run fails, and both members go back to the solo path.
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.Infer(context.Background(), &Request{Model: "mlp", Inputs: []*tensor.Tensor{in}}); err != nil {
				t.Errorf("batched request: %v", err)
			}
		}()
	}
	wg.Wait()
	if got := atomic.LoadInt32(&engineCalls); got < 3 {
		t.Fatalf("engine ran %d times, want >= 3: no member probed after the batch handed back", got)
	}
	for i := 0; i < 3; i++ {
		resp, err := s.Infer(context.Background(), solo)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if resp.Fallback {
			t.Fatalf("request %d served by fallback: the batch probe wedged the breaker", i)
		}
	}
}

// TestBatchShutdownDrains: Shutdown while a window is open must not hang —
// open batches resolve and in-flight members drain.
func TestBatchShutdownDrains(t *testing.T) {
	s := New(Config{MaxConcurrent: 4, MaxBatchSize: 16, MaxLinger: 80 * time.Millisecond},
		realCompile(nil))
	if err := s.Register("mlp", buildMLP); err != nil {
		t.Fatal(err)
	}
	r := tensor.NewRNG(14)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, err := s.Infer(context.Background(), &Request{Model: "mlp",
			Inputs: []*tensor.Tensor{tensor.RandN(r, 0.5, 2, 12)}})
		if err != nil {
			t.Errorf("in-flight request failed during drain: %v", err)
		}
	}()
	time.Sleep(20 * time.Millisecond) // request is lingering in its window
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	wg.Wait()
}
