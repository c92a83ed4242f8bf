package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"godisc"
	"godisc/internal/models"
	"godisc/internal/obs"
)

// zooRank is zoo-direct's fixed popularity order: small models are the
// most frequent, as in online serving.
var zooRank = []string{"mlp", "dlrm", "gpt2", "textcnn", "bert", "asr", "seq2seq"}

// zooSLOMs is zoo-direct's fixed latency limit for slo_attain.
const zooSLOMs = 100

// zooShapes is the fixed 8-point (batch, seq) ladder of a model: every
// batch 1..8 once, paired with sequence lengths spread over
// [8, min(128, MaxSeq)] so short and long sequences meet small and large
// batches. Models without a sequence axis use seq 1.
func zooShapes(m *models.Model) []shape {
	fracs := []float64{1, 1.0 / 16, 0.5, 3.0 / 16, 0.75, 1.0 / 8, 3.0 / 8, 0.25}
	maxSeq := min(128, m.MaxSeq)
	var out []shape
	for i, f := range fracs {
		s := 1
		if maxSeq > 1 {
			s = max(8, int(f*float64(maxSeq)))
		}
		out = append(out, shape{batch: i + 1, seq: s})
	}
	return out
}

// rankWeight returns a point's per-cycle repeat count from its model's
// position in rank.
func rankWeight(rank []string, scale int) func(*point) int {
	return func(p *point) int {
		for i, name := range rank {
			if name == p.model {
				return zipfWeight(scale, i+1)
			}
		}
		return 1
	}
}

// startDirect compiles every zoo model with the default options
// (DefaultWorkers) and returns a target calling Engine.RunContext.
func startDirect(g *gate, tr *obs.Tracer, reg *obs.Registry) (*target, error) {
	engines := map[string]*godisc.Engine{}
	for _, name := range zooRank {
		var opts []godisc.Option
		if tr != nil {
			opts = append(opts, godisc.WithTracer(tr), godisc.WithMetrics(reg))
		}
		eng, err := godisc.CompileWith(zooModel(name).Build(), opts...)
		if err != nil {
			return nil, fmt.Errorf("compiling %s: %w", name, err)
		}
		engines[name] = eng
	}
	return &target{
		tracer: tr,
		close:  func() {},
		do: func(ctx context.Context, p *point) bool {
			res, err := engines[p.model].RunContext(ctx, p.inputs)
			if err != nil {
				g.fail("%s: %v", p.label(), err)
				return false
			}
			return g.checkTensors(p, res.Outputs)
		},
	}, nil
}

// warm sends every point once, outside any measurement.
func warm(t *target, pts []*point) {
	for _, p := range pts {
		t.send(p)
	}
}

// setupRuns is how many times a run sets its system up; setup_s is the
// median.
const setupRuns = 15

// timedSetups runs start n times, keeping the last target, and returns
// the wall time of each set-up.
func timedSetups(n int, start func() (*target, error)) (*target, []float64, error) {
	var t *target
	var times []float64
	for i := 0; i < n; i++ {
		if t != nil {
			t.close()
		}
		runtime.GC() // start every set-up from the same heap state
		t0 := time.Now()
		var err error
		if t, err = start(); err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return t, times, nil
}

func runZooDirect(c runConfig) (*result, error) {
	served := serveModels(zooRank, 1)
	pts, err := makePoints(c.seed, served, zooShapes, false)
	if err != nil {
		return nil, err
	}
	d := deck(c.seed, pts, rankWeight(zooRank, 12))
	res := &result{gate: newGate()}
	dur := time.Duration(c.seconds * float64(time.Second))
	start := func() (*target, error) { return startDirect(res.gate, nil, nil) }
	if c.trace {
		return res, tracedRun(c, res, tracedSpec{
			served: served, pts: pts, deck: d, clients: 1, dur: dur / 4,
			start: func(tr *obs.Tracer, reg *obs.Registry) (*target, *fleetSys, error) {
				t, err := startDirect(res.gate, tr, reg)
				return t, nil, err
			},
		})
	}
	t, setups, err := timedSetups(setupRuns, start)
	if err != nil {
		return nil, err
	}
	defer t.close()
	warm(t, pts)
	ph := beginPhase(zooSLOMs)
	closedLoop(t, pts, d, 1, dur, ph)
	ph.end()
	reportE2E(res, setups, ph, ph)
	return res, nil
}

// reportE2E adds every end-to-end metric. lat is the phase at the
// workload's operating point and gives latency, SLO, CPU, allocation and
// heap; thr is its closed-loop phase and gives throughput and the p99.
// They differ only on fleet-http, whose open-loop p99 varies by a third
// from run to run with the shared host's scheduling stalls; its open-loop
// tail is gated by slo_attain instead and printed as open_loop_p99_ms.
func reportE2E(res *result, setups []float64, lat, thr *phase) {
	res.attempted += lat.sent
	res.failed += lat.failed
	if thr != lat {
		res.attempted += thr.sent
		res.failed += thr.failed
	}
	res.notef("counts phase=latency sent=%d succeeded=%d failed=%d wall_s=%.3f", lat.sent, lat.ok, lat.failed, lat.wall.Seconds())
	if thr != lat {
		res.notef("counts phase=throughput sent=%d succeeded=%d failed=%d wall_s=%.3f", thr.sent, thr.ok, thr.failed, thr.wall.Seconds())
	}
	res.notef("steal phase=latency %s", lat.stealNote())
	if thr != lat {
		res.notef("steal phase=throughput %s", thr.stealNote())
	}
	ls, ts := lat.latency(), thr.latency()
	chunks := fmt.Sprintf("median of %d chunks, n=%d", ls.chunks, ls.n)
	_, cpuSeg, allocSeg := lat.segments()
	thrSeg, _, _ := thr.segments()
	heapSeg := lat.heapPeaks()
	res.add("setup_s", "s", quantile(setups, 0.5), fmt.Sprintf("median of %d set-ups %v", len(setups), roundAll(setups, 4)))
	res.add("throughput_rps", "req/s", quantile(thrSeg, 0.5),
		fmt.Sprintf("closed loop, %d requests, median of segments %v", thr.ok, roundAll(thrSeg, 0)))
	res.add("latency_p50_ms", "ms", ls.p50, chunks)
	res.add("latency_p99_ms", "ms", ts.tail, fmt.Sprintf("p%g, closed loop, median of %d chunks %v, n=%d",
		ts.tailQ*100, ts.chunks, roundAll(ts.tails, 2), ts.n))
	if thr != lat {
		res.add("open_loop_p99_ms", "ms", ls.tail, fmt.Sprintf("p%g, %s %v", ls.tailQ*100, chunks, roundAll(ls.tails, 2)))
	}
	res.add("latency_geomean_ms", "ms", ls.geomean, fmt.Sprintf("over %d models' medians, %s", ls.models, chunks))
	res.add("slo_attain", "ratio", float64(lat.inSLO)/float64(max(lat.sent, 1)), fmt.Sprintf("limit %gms, %d of %d sent", lat.slo, lat.inSLO, lat.sent))
	res.add("cpu_ms_per_req", "ms", quantile(cpuSeg, 0.5), fmt.Sprintf("user+sys, median of %d segments, %d requests", len(cpuSeg), lat.ok))
	res.add("alloc_kb_per_req", "KiB", quantile(allocSeg, 0.5), fmt.Sprintf("median of %d segments", len(allocSeg)))
	res.add("peak_heap_mb", "MiB", quantile(heapSeg, 0.5),
		fmt.Sprintf("live heap at the last GC, sampled every 2ms, median of segment peaks %v; phase peak %.1f",
			roundAll(heapSeg, 1), float64(lat.peak)/(1<<20)))
	res.add("error_ratio", "ratio", float64(res.failed)/float64(max(res.attempted, 1)), "failed+rejected over sent")
}

func roundAll(xs []float64, digits int) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = fmt.Sprintf("%.*f", digits, x)
	}
	return out
}
