package exec

import (
	"bufio"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"godisc/internal/models"
	"godisc/internal/obs"
	"godisc/internal/ral"
	"godisc/internal/tensor"
)

// Tests of the per-engine bookkeeping: the buffer pool's registry series,
// the pool's lifetime relative to the registry, and the per-task
// allocation cost of the parallel executor.

// scrape reads every sample of reg's Prometheus exposition, keyed by the
// series line prefix (name plus labels), and the declared type of each
// metric name.
func scrape(t *testing.T, reg *obs.Registry) (samples map[string]float64, types map[string]string) {
	t.Helper()
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	samples, types = map[string]float64{}, map[string]string{}
	sc := bufio.NewScanner(strings.NewReader(sb.String()))
	for sc.Scan() {
		line := sc.Text()
		if f := strings.Fields(line); len(f) == 4 && f[1] == "TYPE" {
			types[f[2]] = f[3]
			continue
		}
		if strings.HasPrefix(line, "#") || line == "" {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("sample %q: %v", line, err)
		}
		samples[line[:i]] = v
	}
	return samples, types
}

// TestPoolSeriesSumEnginePools: the godisc_pool_* series of a graph are
// the sums of the Stats of every pool compiled for it, the counters
// expose as counters, and a dropped engine's history stays in the sums.
func TestPoolSeriesSumEnginePools(t *testing.T) {
	reg := obs.NewRegistry()
	o := DefaultOptions()
	o.Metrics = reg
	g1, _ := buildFaultNet(t)
	g2, _ := buildFaultNet(t)
	e1, e2 := compileOpts(t, g1, o), compileOpts(t, g2, o)
	run := func(e *Executable, batch int) {
		t.Helper()
		in := tensor.RandN(tensor.NewRNG(uint64(batch)), 0.5, batch, 16)
		if _, err := e.Run([]*tensor.Tensor{in}); err != nil {
			t.Fatal(err)
		}
	}
	check := func(label string, stats ...ral.PoolStats) {
		t.Helper()
		var want ral.PoolStats
		for _, st := range stats {
			want.Allocs += st.Allocs
			want.Reuses += st.Reuses
			want.InUseElems += st.InUseElems
			want.PeakElems += st.PeakElems
		}
		samples, types := scrape(t, reg)
		for name, v := range map[string]float64{
			"godisc_pool_allocs_total": float64(want.Allocs),
			"godisc_pool_reuses_total": float64(want.Reuses),
			"godisc_pool_in_use_elems": float64(want.InUseElems),
			"godisc_pool_peak_elems":   float64(want.PeakElems),
		} {
			key := fmt.Sprintf(`%s{graph="faultnet"}`, name)
			if got, ok := samples[key]; !ok || got != v {
				t.Errorf("%s: %s = %v (present %t), want %v", label, key, got, ok, v)
			}
		}
		for _, name := range []string{"godisc_pool_allocs_total", "godisc_pool_reuses_total"} {
			if types[name] != "counter" {
				t.Errorf("%s: %s has type %q, want counter", label, name, types[name])
			}
		}
	}

	run(e1, 4)
	run(e1, 4)
	run(e2, 32)
	if st := e1.Pool.Stats(); st.Allocs == 0 || st.Reuses == 0 {
		t.Fatalf("engine 1 pool saw no traffic: %+v", st)
	}
	check("two engines", e1.Pool.Stats(), e2.Pool.Stats())

	dropped := e2.Pool.Stats()
	e2 = nil
	runtime.GC()
	run(e1, 8)
	check("after dropping engine 2", e1.Pool.Stats(), dropped)
}

// TestPoolCollectableAfterEngineDropped: publishing pool metrics must not
// make the registry hold the pool, so an evicted engine's buffers are
// reclaimed while the registry lives on.
func TestPoolCollectableAfterEngineDropped(t *testing.T) {
	reg := obs.NewRegistry()
	o := DefaultOptions()
	o.Metrics = reg
	o.Workers = 2
	g, _ := buildFaultNet(t)
	e := compileOpts(t, g, o)
	if _, err := e.Run([]*tensor.Tensor{tensor.RandN(tensor.NewRNG(1), 0.5, 8, 16)}); err != nil {
		t.Fatal(err)
	}
	pool := e.Pool
	e = nil
	collected := make(chan struct{})
	runtime.SetFinalizer(pool, func(*ral.Pool) { close(collected) })
	pool = nil
	for i := 0; i < 100; i++ {
		runtime.GC()
		select {
		case <-collected:
			runtime.KeepAlive(reg)
			return
		case <-time.After(5 * time.Millisecond):
		}
	}
	t.Fatal("dropped engine's pool was never collected: something still references it")
}

// TestParallelAllocOverhead bounds what the parallel executor allocates
// beyond the sequential walk: at most two heap objects per task over the
// zoo at batch 2, sequence 16. Per-task bookkeeping (profile shards,
// per-task closures) would blow the bound.
func TestParallelAllocOverhead(t *testing.T) {
	for _, m := range models.Registry() {
		seqOpts, parOpts := DefaultOptions(), DefaultOptions()
		parOpts.Workers = 2
		seq, par := compileOpts(t, m.Build(), seqOpts), compileOpts(t, m.Build(), parOpts)
		ins := m.GenInputs(tensor.NewRNG(7), 2, min(16, m.MaxSeq))
		allocs := func(e *Executable) float64 {
			if _, err := e.Run(ins); err != nil {
				t.Fatalf("%s: %v", m.Name, err)
			}
			return testing.AllocsPerRun(20, func() {
				if _, err := e.Run(ins); err != nil {
					panic(err)
				}
			})
		}
		s, p := allocs(seq), allocs(par)
		limit := 2 * float64(len(par.tasks))
		t.Logf("%s: w=1 %.0f allocs, w=2 %.0f allocs, overhead %.0f (limit %.0f, %d tasks)",
			m.Name, s, p, p-s, limit, len(par.tasks))
		if p-s > limit {
			t.Errorf("%s: parallel run allocates %.0f objects more than sequential, limit %.0f (2 per task)",
				m.Name, p-s, limit)
		}
	}
}
