package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"godisc/internal/discerr"
	"godisc/internal/exec"
	"godisc/internal/graph"
	"godisc/internal/ral"
	"godisc/internal/tensor"
)

// engineFunc adapts a function to the Engine interface for failure-mode
// stubs.
type engineFunc func(ctx context.Context, inputs []*tensor.Tensor) (*exec.Result, error)

func (f engineFunc) RunContext(ctx context.Context, inputs []*tensor.Tensor) (*exec.Result, error) {
	return f(ctx, inputs)
}

func okResult() (*exec.Result, error) {
	p := ral.NewProfiler()
	p.Host(1000)
	return &exec.Result{Profile: p}, nil
}

// mlpInput returns a valid input for buildMLP plus its reference outputs.
func mlpInput(t *testing.T, batch int) (*tensor.Tensor, []*tensor.Tensor) {
	t.Helper()
	in := tensor.RandN(tensor.NewRNG(11), 0.6, batch, 12)
	want, err := graph.Evaluate(buildMLP(), []*tensor.Tensor{in})
	if err != nil {
		t.Fatal(err)
	}
	return in, want
}

// TestFallbackOnCompileFailure: a model whose compilation always fails is
// still served — through the interpreter — with correct outputs.
func TestFallbackOnCompileFailure(t *testing.T) {
	s := New(Config{MaxConcurrent: 2}, func(*graph.Graph) (Engine, error) {
		return nil, errors.New("lowering exploded")
	})
	if err := s.Register("mlp", buildMLP); err != nil {
		t.Fatal(err)
	}
	in, want := mlpInput(t, 3)
	resp, err := s.Infer(context.Background(), &Request{Model: "mlp", Inputs: []*tensor.Tensor{in}})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Fallback {
		t.Fatal("response must be marked as fallback")
	}
	if err := tensor.AllClose(resp.Outputs[0], want[0], 1e-5, 1e-6); err != nil {
		t.Fatal(err)
	}
	if resp.Profile.SimulatedNs <= 0 {
		t.Fatal("fallback must charge interpreter overhead")
	}
	st := s.Stats()
	if st.FallbackRuns != 1 || st.Completed != 1 || st.Failed != 0 {
		t.Fatalf("stats: %s", st)
	}
}

// TestFallbackOnKernelPanic: an engine that panics mid-run degrades to a
// successful interpreter-served request, not a dead process.
func TestFallbackOnKernelPanic(t *testing.T) {
	s := New(Config{MaxConcurrent: 2}, func(*graph.Graph) (Engine, error) {
		return engineFunc(func(context.Context, []*tensor.Tensor) (*exec.Result, error) {
			panic("kernel crashed")
		}), nil
	})
	if err := s.Register("mlp", buildMLP); err != nil {
		t.Fatal(err)
	}
	in, want := mlpInput(t, 2)
	resp, err := s.Infer(context.Background(), &Request{Model: "mlp", Inputs: []*tensor.Tensor{in}})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Fallback {
		t.Fatal("want fallback response")
	}
	if err := tensor.AllClose(resp.Outputs[0], want[0], 1e-5, 1e-6); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.KernelPanics != 1 || st.FallbackRuns != 1 || st.Failed != 0 {
		t.Fatalf("stats: %s", st)
	}
}

// TestTransientRetrySucceeds: two transient failures then success — the
// request completes on the engine (no fallback) after two retries.
func TestTransientRetrySucceeds(t *testing.T) {
	var calls int32
	s := New(Config{MaxConcurrent: 2, MaxRetries: 3, RetryBackoff: 100 * time.Microsecond},
		func(*graph.Graph) (Engine, error) {
			return engineFunc(func(context.Context, []*tensor.Tensor) (*exec.Result, error) {
				if atomic.AddInt32(&calls, 1) <= 2 {
					return nil, fmt.Errorf("alloc hiccup: %w", discerr.ErrTransient)
				}
				return okResult()
			}), nil
		})
	if err := s.Register("mlp", buildMLP); err != nil {
		t.Fatal(err)
	}
	resp, err := s.Infer(context.Background(), &Request{Model: "mlp"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Fallback || resp.Retries != 2 {
		t.Fatalf("fallback=%v retries=%d, want engine success after 2 retries", resp.Fallback, resp.Retries)
	}
	st := s.Stats()
	if st.Retries != 2 || st.FallbackRuns != 0 || st.Completed != 1 {
		t.Fatalf("stats: %s", st)
	}
}

// TestTransientExhaustedFallsBack: when every attempt is transient, the
// retry budget is spent and the request falls back.
func TestTransientExhaustedFallsBack(t *testing.T) {
	s := New(Config{MaxConcurrent: 2, MaxRetries: 2, RetryBackoff: 100 * time.Microsecond},
		func(*graph.Graph) (Engine, error) {
			return engineFunc(func(context.Context, []*tensor.Tensor) (*exec.Result, error) {
				return nil, fmt.Errorf("alloc hiccup: %w", discerr.ErrTransient)
			}), nil
		})
	if err := s.Register("mlp", buildMLP); err != nil {
		t.Fatal(err)
	}
	in, _ := mlpInput(t, 2)
	resp, err := s.Infer(context.Background(), &Request{Model: "mlp", Inputs: []*tensor.Tensor{in}})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Fallback || resp.Retries != 2 {
		t.Fatalf("fallback=%v retries=%d", resp.Fallback, resp.Retries)
	}
	if st := s.Stats(); st.Retries != 2 || st.FallbackRuns != 1 {
		t.Fatalf("stats: %s", st)
	}
}

// TestDisableFallbackPropagates: with fallback off, the engine error
// reaches the caller typed.
func TestDisableFallbackPropagates(t *testing.T) {
	s := New(Config{MaxConcurrent: 2, DisableFallback: true, MaxRetries: -1},
		func(*graph.Graph) (Engine, error) {
			return engineFunc(func(context.Context, []*tensor.Tensor) (*exec.Result, error) {
				panic("kernel crashed")
			}), nil
		})
	if err := s.Register("mlp", buildMLP); err != nil {
		t.Fatal(err)
	}
	in, _ := mlpInput(t, 2)
	_, err := s.Infer(context.Background(), &Request{Model: "mlp", Inputs: []*tensor.Tensor{in}})
	if !errors.Is(err, discerr.ErrKernelPanic) {
		t.Fatalf("err = %v, want ErrKernelPanic", err)
	}
	if st := s.Stats(); st.Failed != 1 || st.FallbackRuns != 0 {
		t.Fatalf("stats: %s", st)
	}
}

// TestBreakerOpensAndShortCircuits: BreakerThreshold consecutive engine
// failures quarantine the engine; further requests go straight to
// fallback without touching it, until the cooldown.
func TestBreakerOpensAndShortCircuits(t *testing.T) {
	var engineCalls int32
	s := New(Config{
		MaxConcurrent: 1, MaxRetries: -1,
		BreakerThreshold: 2, BreakerCooldown: time.Hour,
	}, func(*graph.Graph) (Engine, error) {
		return engineFunc(func(context.Context, []*tensor.Tensor) (*exec.Result, error) {
			atomic.AddInt32(&engineCalls, 1)
			panic("kernel crashed")
		}), nil
	})
	if err := s.Register("mlp", buildMLP); err != nil {
		t.Fatal(err)
	}
	in, _ := mlpInput(t, 2)
	req := &Request{Model: "mlp", Inputs: []*tensor.Tensor{in}}

	for i := 0; i < 5; i++ {
		resp, err := s.Infer(context.Background(), req)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if !resp.Fallback {
			t.Fatalf("request %d must fall back", i)
		}
	}
	if got := atomic.LoadInt32(&engineCalls); got != 2 {
		t.Fatalf("engine ran %d times, want 2 (then quarantined)", got)
	}
	st := s.Stats()
	if st.BreakerOpens != 1 || st.BreakerShortCircuits != 3 {
		t.Fatalf("stats: %s", st)
	}
	if st.FallbackRuns != 5 || st.Failed != 0 {
		t.Fatalf("stats: %s", st)
	}
}

// TestBreakerHalfOpenProbeCloses: after the cooldown one probe is let
// through; when the engine has healed, the probe closes the breaker and
// traffic returns to the compiled path.
func TestBreakerHalfOpenProbeCloses(t *testing.T) {
	var healed atomic.Bool
	var engineCalls int32
	s := New(Config{
		MaxConcurrent: 1, MaxRetries: -1,
		BreakerThreshold: 1, BreakerCooldown: 20 * time.Millisecond,
	}, func(*graph.Graph) (Engine, error) {
		return engineFunc(func(context.Context, []*tensor.Tensor) (*exec.Result, error) {
			atomic.AddInt32(&engineCalls, 1)
			if !healed.Load() {
				panic("kernel crashed")
			}
			return okResult()
		}), nil
	})
	if err := s.Register("mlp", buildMLP); err != nil {
		t.Fatal(err)
	}
	in, _ := mlpInput(t, 2)
	req := &Request{Model: "mlp", Inputs: []*tensor.Tensor{in}}

	// Failure opens the breaker (threshold 1).
	if resp, err := s.Infer(context.Background(), req); err != nil || !resp.Fallback {
		t.Fatalf("first: resp=%+v err=%v", resp, err)
	}
	// Quarantined while open.
	if resp, err := s.Infer(context.Background(), req); err != nil || !resp.Fallback {
		t.Fatalf("quarantined: resp=%+v err=%v", resp, err)
	}

	healed.Store(true)
	time.Sleep(25 * time.Millisecond) // past the cooldown: half-open

	resp, err := s.Infer(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Fallback {
		t.Fatal("half-open probe must reach the healed engine")
	}
	// Breaker closed again: the next request uses the engine too.
	if resp, err := s.Infer(context.Background(), req); err != nil || resp.Fallback {
		t.Fatalf("after close: resp=%+v err=%v", resp, err)
	}
	st := s.Stats()
	if st.BreakerOpens != 1 {
		t.Fatalf("stats: %s", st)
	}
	if got := atomic.LoadInt32(&engineCalls); got != 3 { // fail, probe, normal
		t.Fatalf("engine ran %d times, want 3", got)
	}
}

// TestBreakerReopensOnFailedProbe: a half-open probe that fails sends the
// breaker straight back to open.
func TestBreakerReopensOnFailedProbe(t *testing.T) {
	var engineCalls int32
	s := New(Config{
		MaxConcurrent: 1, MaxRetries: -1,
		BreakerThreshold: 1, BreakerCooldown: 15 * time.Millisecond,
	}, func(*graph.Graph) (Engine, error) {
		return engineFunc(func(context.Context, []*tensor.Tensor) (*exec.Result, error) {
			atomic.AddInt32(&engineCalls, 1)
			panic("still broken")
		}), nil
	})
	if err := s.Register("mlp", buildMLP); err != nil {
		t.Fatal(err)
	}
	in, _ := mlpInput(t, 2)
	req := &Request{Model: "mlp", Inputs: []*tensor.Tensor{in}}

	s.Infer(context.Background(), req) // opens
	time.Sleep(20 * time.Millisecond)  // half-open window
	s.Infer(context.Background(), req) // probe fails -> reopen
	s.Infer(context.Background(), req) // quarantined again immediately

	if got := atomic.LoadInt32(&engineCalls); got != 2 {
		t.Fatalf("engine ran %d times, want 2 (initial + failed probe)", got)
	}
	if st := s.Stats(); st.BreakerOpens != 2 || st.Failed != 0 {
		t.Fatalf("stats: %s", st)
	}
}

// TestBreakerProbeReleasedWithoutVerdict: a half-open probe that ends
// without a verdict on the engine — its caller went away mid-run, its
// inputs were invalid, or the memory budget shed it — must free its slot,
// so the next request probes the healed engine and closes the breaker
// instead of every later request short-circuiting to fallback.
func TestBreakerProbeReleasedWithoutVerdict(t *testing.T) {
	for _, tc := range []struct {
		name  string
		probe func(ctx context.Context) error // the probe run's outcome
		want  error
	}{
		{"cancelled", func(ctx context.Context) error { <-ctx.Done(); return ctx.Err() }, context.Canceled},
		{"shape mismatch", func(context.Context) error {
			return fmt.Errorf("bad input: %w", discerr.ErrShapeMismatch)
		}, discerr.ErrShapeMismatch},
		{"memory budget", func(context.Context) error {
			return fmt.Errorf("reserve: %w", discerr.ErrMemoryBudget)
		}, discerr.ErrMemoryBudget},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var engineCalls int32
			probing := make(chan struct{})
			s := New(Config{
				MaxConcurrent: 1, MaxRetries: -1,
				BreakerThreshold: 1, BreakerCooldown: 20 * time.Millisecond,
			}, func(*graph.Graph) (Engine, error) {
				return engineFunc(func(ctx context.Context, _ []*tensor.Tensor) (*exec.Result, error) {
					switch atomic.AddInt32(&engineCalls, 1) {
					case 1:
						panic("kernel crashed")
					case 2:
						close(probing)
						return nil, tc.probe(ctx)
					}
					return okResult()
				}), nil
			})
			if err := s.Register("mlp", buildMLP); err != nil {
				t.Fatal(err)
			}
			in, _ := mlpInput(t, 2)
			req := &Request{Model: "mlp", Inputs: []*tensor.Tensor{in}}

			if resp, err := s.Infer(context.Background(), req); err != nil || !resp.Fallback {
				t.Fatalf("opening failure: resp=%+v err=%v", resp, err)
			}
			time.Sleep(25 * time.Millisecond) // past the cooldown: half-open

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if tc.want == context.Canceled {
				go func() {
					<-probing
					cancel()
				}()
			}
			if _, err := s.Infer(ctx, req); !errors.Is(err, tc.want) {
				t.Fatalf("probe: err=%v, want %v", err, tc.want)
			}
			for i := 0; i < 5; i++ {
				resp, err := s.Infer(context.Background(), req)
				if err != nil {
					t.Fatalf("request %d: %v", i, err)
				}
				if resp.Fallback {
					t.Fatalf("request %d served by fallback: the probe wedged the breaker", i)
				}
			}
			if got := atomic.LoadInt32(&engineCalls); got != 7 { // fail, probe, 5 healthy
				t.Fatalf("engine ran %d times, want 7", got)
			}
		})
	}
}

// TestBreakerProbeReleasedWhileCompiling: under AsyncCompile a half-open
// probe that finds the engine still compiling is answered by the
// interpreter with no verdict. Its slot must be freed, so once the
// background build lands a later request probes the engine and closes the
// breaker.
func TestBreakerProbeReleasedWhileCompiling(t *testing.T) {
	var compiles int32
	s := New(Config{
		MaxConcurrent: 1, AsyncCompile: true,
		BreakerThreshold: 1, BreakerCooldown: 20 * time.Millisecond,
	}, func(*graph.Graph) (Engine, error) {
		if atomic.AddInt32(&compiles, 1) == 1 {
			return nil, errors.New("lowering exploded")
		}
		return engineFunc(func(context.Context, []*tensor.Tensor) (*exec.Result, error) {
			return okResult()
		}), nil
	})
	defer s.Close()
	if err := s.Register("mlp", buildMLP); err != nil {
		t.Fatal(err)
	}
	in, _ := mlpInput(t, 2)
	req := &Request{Model: "mlp", Inputs: []*tensor.Tensor{in}}

	// The first request kicks a background compile that fails and opens
	// the breaker.
	if resp, err := s.Infer(context.Background(), req); err != nil || !resp.Compiling {
		t.Fatalf("first: resp=%+v err=%v", resp, err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().BreakerOpens == 0 {
		if time.Now().After(deadline) {
			t.Fatal("failed background compile never opened the breaker")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(25 * time.Millisecond) // past the cooldown: half-open

	// The probe finds no engine, re-kicks the compile and falls back; the
	// rebuilt engine must then get a probe of its own.
	for {
		resp, err := s.Infer(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if !resp.Fallback {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("still served by fallback after the engine compiled (%d compiles): the probe wedged the breaker",
				atomic.LoadInt32(&compiles))
		}
		time.Sleep(time.Millisecond)
	}
}

// TestShutdownDrainsInFlight: Shutdown returns nil only after in-flight
// requests complete; late Infers get ErrServerClosed.
func TestShutdownDrainsInFlight(t *testing.T) {
	stub := &stubEngine{started: make(chan struct{}, 8), release: make(chan struct{})}
	s := stubServer(t, Config{MaxConcurrent: 2}, stub)

	var wg sync.WaitGroup
	wg.Add(1)
	var inflightErr error
	go func() {
		defer wg.Done()
		_, inflightErr = s.Infer(context.Background(), &Request{Model: "m"})
	}()
	<-stub.started

	done := make(chan error, 1)
	go func() { done <- s.Shutdown(context.Background()) }()
	select {
	case <-done:
		t.Fatal("Shutdown returned while a request was in flight")
	case <-time.After(30 * time.Millisecond):
	}

	close(stub.release)
	wg.Wait()
	if err := <-done; err != nil {
		t.Fatalf("clean drain must return nil, got %v", err)
	}
	if inflightErr != nil {
		t.Fatalf("in-flight request must complete: %v", inflightErr)
	}
	if _, err := s.Infer(context.Background(), &Request{Model: "m"}); !errors.Is(err, discerr.ErrServerClosed) {
		t.Fatalf("late Infer: %v, want ErrServerClosed", err)
	}
	if st := s.Stats(); st.Completed != 1 || st.Rejected != 1 {
		t.Fatalf("stats: %s", st)
	}
}

// TestShutdownForceCancelsAtDeadline: when the drain deadline expires,
// in-flight requests are cancelled, Shutdown returns ctx.Err(), and the
// server still waits for them to unwind.
func TestShutdownForceCancelsAtDeadline(t *testing.T) {
	stub := &stubEngine{started: make(chan struct{}, 8), release: make(chan struct{})}
	s := stubServer(t, Config{MaxConcurrent: 2}, stub)

	var wg sync.WaitGroup
	wg.Add(1)
	var inflightErr error
	go func() {
		defer wg.Done()
		// The stub blocks until released or cancelled; we never release.
		_, inflightErr = s.Infer(context.Background(), &Request{Model: "m"})
	}()
	<-stub.started

	ctx, cancel := context.WithTimeout(context.Background(), 25*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want DeadlineExceeded", err)
	}
	wg.Wait()
	if !errors.Is(inflightErr, context.Canceled) {
		t.Fatalf("in-flight err = %v, want context.Canceled", inflightErr)
	}
	if st := s.Stats(); st.Canceled != 1 {
		t.Fatalf("stats: %s", st)
	}
}

// TestShutdownIdempotent: repeated and concurrent Shutdown/Close calls
// are safe.
func TestShutdownIdempotent(t *testing.T) {
	s := New(Config{}, realCompile(nil))
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := s.Shutdown(context.Background()); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	s.Close()
	if _, err := s.Infer(context.Background(), &Request{Model: "x"}); !errors.Is(err, discerr.ErrServerClosed) {
		t.Fatalf("err = %v", err)
	}
}
