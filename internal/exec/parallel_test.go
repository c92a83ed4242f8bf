package exec

import (
	"context"
	"errors"
	"maps"
	"math"
	"sync"
	"testing"
	"time"

	"godisc/internal/device"
	"godisc/internal/fusion"
	"godisc/internal/models"
	"godisc/internal/opt"
	"godisc/internal/ral"
	"godisc/internal/tensor"
)

// Differential suite for the parallel engine: every test compiles the
// same graph twice — once sequential, once with Workers > 1 — and demands
// the outputs match bit for bit. Float addition is not associative, so
// this only holds because partitioning never reorders accumulation:
// range chunks write disjoint rows and partial reductions combine in a
// fixed order (see DESIGN.md §9).

// bitEqual compares two f32 buffers exactly (NaN-safe: identical bit
// patterns compare equal).
func bitEqual(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// requireBitIdentical runs both engines on the same inputs and fails on
// any bitwise difference in the outputs or any difference in the profile.
func requireBitIdentical(t *testing.T, seq, par *Executable, inputs []*tensor.Tensor, label string) *Result {
	t.Helper()
	want, err := seq.Run(inputs)
	if err != nil {
		t.Fatalf("%s: sequential: %v", label, err)
	}
	got, err := par.Run(inputs)
	if err != nil {
		t.Fatalf("%s: parallel: %v", label, err)
	}
	if len(got.Outputs) != len(want.Outputs) {
		t.Fatalf("%s: output count %d vs %d", label, len(got.Outputs), len(want.Outputs))
	}
	for i := range want.Outputs {
		if !bitEqual(got.Outputs[i].F32(), want.Outputs[i].F32()) {
			t.Fatalf("%s: output %d differs from sequential run bit-for-bit", label, i)
		}
	}
	requireSameProfile(t, want.Profile, got.Profile, label)
	return got
}

// requireSameProfile demands the parallel profile equal the sequential
// one: counts and map keys exactly, float totals to a relative 1e-9
// (workers charge in a different order, so sums round differently).
// Partitions and the kernel wall fields are the parallel engine's own.
func requireSameProfile(t *testing.T, want, got *ral.Profiler, label string) {
	t.Helper()
	if got.Launches != want.Launches || got.LibraryOps != want.LibraryOps {
		t.Fatalf("%s: parallel profile launches=%d library=%d, sequential %d/%d",
			label, got.Launches, got.LibraryOps, want.Launches, want.LibraryOps)
	}
	near := func(field string, w, g float64) {
		t.Helper()
		if math.Abs(g-w) > 1e-9*math.Max(math.Abs(w), math.Abs(g)) {
			t.Fatalf("%s: parallel profile %s = %v, sequential %v", label, field, g, w)
		}
	}
	near("BytesMoved", want.BytesMoved, got.BytesMoved)
	near("Flops", want.Flops, got.Flops)
	near("SimulatedNs", want.SimulatedNs, got.SimulatedNs)
	near("HostNs", want.HostNs, got.HostNs)
	near("CompileNs", want.CompileNs, got.CompileNs)
	if !maps.Equal(got.VariantHits, want.VariantHits) {
		t.Fatalf("%s: parallel variant hits %v, sequential %v", label, got.VariantHits, want.VariantHits)
	}
	if len(got.PerKernel) != len(want.PerKernel) {
		t.Fatalf("%s: parallel profile has %d kernels, sequential %d", label, len(got.PerKernel), len(want.PerKernel))
	}
	for k, w := range want.PerKernel {
		g, ok := got.PerKernel[k]
		if !ok {
			t.Fatalf("%s: kernel %s missing from parallel profile", label, k)
		}
		near("PerKernel["+k+"]", w, g)
	}
}

// TestParallelBitIdenticalModels runs the whole model zoo through the
// parallel engine at several worker counts and shapes and requires bit
// identity with the sequential engine. Large shapes are included so
// kernel partitioning actually triggers (asserted below).
func TestParallelBitIdenticalModels(t *testing.T) {
	partitioned := false
	for _, m := range models.Registry() {
		for _, workers := range []int{2, 4, 7} {
			seqG := m.Build()
			parG := m.Build()
			seq := compile(t, seqG, fusion.DefaultConfig())
			if _, err := opt.Default().Run(parG); err != nil {
				t.Fatal(err)
			}
			plan, err := fusion.NewPlanner(fusion.DefaultConfig()).Plan(parG)
			if err != nil {
				t.Fatal(err)
			}
			o := DefaultOptions()
			o.Workers = workers
			par, err := Compile(parG, plan, device.A10(), o)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range [][2]int{{1, 4}, {3, 17}, {8, 96}} {
				seqLen := min(p[1], m.MaxSeq)
				r := tensor.NewRNG(uint64(31*workers + p[0]))
				ins := m.GenInputs(r, p[0], seqLen)
				res := requireBitIdentical(t, seq, par, ins, m.Name)
				if res.Profile.Partitions > 0 {
					partitioned = true
				}
			}
			if st := par.Pool.Stats(); st.InUseElems != 0 {
				t.Fatalf("%s w=%d: pool leaked %d elems", m.Name, workers, st.InUseElems)
			}
		}
	}
	if !partitioned {
		t.Fatal("no model at any shape triggered kernel partitioning; the suite is not exercising chunked execution")
	}
}

// TestParallelBitIdenticalRandomGraphs reuses the differential graph
// generator with randomized worker counts per trial — the fuzzing net
// over DAG construction, refcount liveness and chunked kernels.
func TestParallelBitIdenticalRandomGraphs(t *testing.T) {
	const trials = 40
	dev := device.A10()
	for seed := uint64(500); seed < 500+trials; seed++ {
		r := tensor.NewRNG(seed)
		workers := 2 + int(r.Intn(7)) // 2..8
		steps := 4 + int(seed%12)
		h := []int{4, 8, 16}[seed%3]
		mk := func(workers int) *Executable {
			g := buildRandom(seed, steps, h)
			if _, err := opt.Default().Run(g); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			plan, err := fusion.NewPlanner(fusion.DefaultConfig()).Plan(g)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			o := DefaultOptions()
			o.Workers = workers
			e, err := Compile(g, plan, dev, o)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			return e
		}
		seq := mk(1)
		par := mk(workers)
		for _, shape := range [][2]int{{1, 3}, {2, 17}, {4, 64}} {
			x := tensor.RandN(r, 0.5, shape[0], shape[1], h)
			y := tensor.RandN(r, 0.5, shape[0], shape[1], h)
			requireBitIdentical(t, seq, par, []*tensor.Tensor{x, y}, "fuzz")
		}
		if st := par.Pool.Stats(); st.InUseElems != 0 {
			t.Fatalf("seed %d w=%d: pool leaked %d elems", seed, workers, st.InUseElems)
		}
	}
}

// TestParallelSharedPoolAcrossEngines: one WorkerPool shared by several
// engines running concurrently (the serving configuration) must stay
// correct and leak-free — helper tokens are borrowed and returned, never
// held across runs.
func TestParallelSharedPoolAcrossEngines(t *testing.T) {
	pool := NewWorkerPool(4)
	m, err := models.ByName("bert")
	if err != nil {
		t.Fatal(err)
	}
	seq := compile(t, m.Build(), fusion.DefaultConfig())
	const engines = 3
	pars := make([]*Executable, engines)
	for i := range pars {
		g := m.Build()
		if _, err := opt.Default().Run(g); err != nil {
			t.Fatal(err)
		}
		plan, err := fusion.NewPlanner(fusion.DefaultConfig()).Plan(g)
		if err != nil {
			t.Fatal(err)
		}
		o := DefaultOptions()
		o.Workers = pool.Size()
		o.WorkerPool = pool
		pars[i], err = Compile(g, plan, device.A10(), o)
		if err != nil {
			t.Fatal(err)
		}
	}
	r := tensor.NewRNG(9)
	ins := m.GenInputs(r, 4, 32)
	want, err := seq.Run(ins)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errc := make(chan error, engines*4)
	for _, e := range pars {
		wg.Add(1)
		go func(e *Executable) {
			defer wg.Done()
			for it := 0; it < 4; it++ {
				got, err := e.Run(ins)
				if err != nil {
					errc <- err
					return
				}
				for i := range want.Outputs {
					if !bitEqual(got.Outputs[i].F32(), want.Outputs[i].F32()) {
						errc <- errors.New("shared-pool run differs from sequential")
						return
					}
				}
			}
		}(e)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	for i, e := range pars {
		if st := e.Pool.Stats(); st.InUseElems != 0 {
			t.Fatalf("engine %d leaked %d elems", i, st.InUseElems)
		}
	}
	if len(pool.tokens) != 0 {
		t.Fatalf("worker pool holds %d unreleased tokens", len(pool.tokens))
	}
}

// TestParallelCancellationMidRun cancels contexts at staggered points
// while the parallel engine is mid-flight. Cancellation is checked at
// partition granularity (execChunk), so each attempt must end in either
// a clean result or context.Canceled — and in both cases the pool must
// be fully drained and the engine immediately reusable.
func TestParallelCancellationMidRun(t *testing.T) {
	m, err := models.ByName("bert")
	if err != nil {
		t.Fatal(err)
	}
	g := m.Build()
	if _, err := opt.Default().Run(g); err != nil {
		t.Fatal(err)
	}
	plan, err := fusion.NewPlanner(fusion.DefaultConfig()).Plan(g)
	if err != nil {
		t.Fatal(err)
	}
	o := DefaultOptions()
	o.Workers = 4
	e, err := Compile(g, plan, device.A10(), o)
	if err != nil {
		t.Fatal(err)
	}
	ins := m.GenInputs(tensor.NewRNG(5), 8, 96)
	cancelled := 0
	for i := 0; i < 12; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		if i == 0 {
			cancel() // definitely-cancelled case: must fail fast
		} else {
			delay := time.Duration(i) * 150 * time.Microsecond
			go func() { time.Sleep(delay); cancel() }()
		}
		_, err := e.RunContext(ctx, ins)
		switch {
		case err == nil:
			// Cancel landed after completion: fine.
		case errors.Is(err, context.Canceled):
			cancelled++
		default:
			t.Fatalf("iter %d: unexpected error %v", i, err)
		}
		cancel()
		if st := e.Pool.Stats(); st.InUseElems != 0 {
			t.Fatalf("iter %d: aborted run leaked %d elems", i, st.InUseElems)
		}
	}
	if cancelled == 0 {
		t.Fatal("no iteration observed a cancellation")
	}
	// Engine still serves correct results afterwards.
	if _, err := e.Run(ins); err != nil {
		t.Fatal(err)
	}
}

// TestSimulateScheduleBounds sanity-checks the modeled makespan: one
// worker degenerates to the serial sum, more workers never increase the
// makespan, and the speedup never exceeds the worker count.
func TestSimulateScheduleBounds(t *testing.T) {
	m, err := models.ByName("bert")
	if err != nil {
		t.Fatal(err)
	}
	e := compile(t, m.Build(), fusion.DefaultConfig())
	shapes := [][]int{{4, 32}, {4, 32}}
	// bert takes (tokens, mask); derive the input shapes from GenInputs.
	ins := m.GenInputs(tensor.NewRNG(1), 4, 32)
	shapes = shapes[:0]
	for _, in := range ins {
		shapes = append(shapes, in.Shape())
	}
	prev := math.Inf(1)
	for _, w := range []int{1, 2, 4, 8} {
		sim, err := e.SimulateSchedule(shapes, w)
		if err != nil {
			t.Fatal(err)
		}
		if w == 1 && sim.MakespanNs != sim.SerialNs {
			t.Fatalf("w=1 makespan %v != serial %v", sim.MakespanNs, sim.SerialNs)
		}
		if sim.MakespanNs > prev+1e-9 {
			t.Fatalf("makespan increased with more workers: %v -> %v", prev, sim.MakespanNs)
		}
		if s := sim.Speedup(); s > float64(w)+1e-9 {
			t.Fatalf("w=%d speedup %v exceeds worker count", w, s)
		}
		prev = sim.MakespanNs
	}
}
