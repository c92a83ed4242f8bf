package main

import (
	"encoding/json"
	"fmt"
	"math"

	"godisc/internal/fleet"
	"godisc/internal/tensor"
)

// runSelftest is the benchmark's own smoke test: every workload runs
// briefly, untraced and traced, and must print each of its metrics with a
// unit and a finite value; then the correctness gate must catch a
// deliberately corrupted reference and a response that changes between
// two runs of the same point.
func runSelftest() int {
	failures := 0
	check := func(ok bool, format string, args ...any) {
		status := "ok  "
		if !ok {
			status = "FAIL"
			failures++
		}
		fmt.Printf("selftest %s %s\n", status, fmt.Sprintf(format, args...))
	}
	for _, w := range workloads() {
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(w, DefaultSeed, 1, traced)
			if err != nil {
				check(false, "%s trace=%t: %v", w.name, traced, err)
				continue
			}
			check(!res.gate.failed(), "%s trace=%t: %d responses pass the correctness gate", w.name, traced, res.attempted)
			want := map[string]string{}
			if traced {
				for _, name := range jsonLayerMetrics {
					want[name] = ""
				}
				if w.name != "zoo-direct" {
					for _, m := range httpLayerMetrics {
						want[m.name] = m.unit
					}
				}
			} else {
				for _, m := range e2eMetrics {
					want[m.name] = m.unit
				}
			}
			got := map[string]metric{}
			for _, m := range res.metrics {
				got[m.name] = m
			}
			for name, unit := range want {
				m, ok := got[name]
				switch {
				case !ok:
					check(false, "%s trace=%t: metric %s missing", w.name, traced, name)
				case m.absent:
					// Reported as not exercised; allowed only for metrics
					// with no meaningful value on this run.
					check(name == "client.gen_lag_p99_ms" || name == "serve.reload_ms_p50" ||
						name == "serve.batch_linger_ms_p50" || name == "serve.batch_size_mean",
						"%s trace=%t: metric %s absent (%s)", w.name, traced, name, m.note)
				case m.unit == "" || (unit != "" && m.unit != unit):
					check(false, "%s trace=%t: metric %s has unit %q, want %q", w.name, traced, name, m.unit, unit)
				case math.IsNaN(m.value) || math.IsInf(m.value, 0):
					check(false, "%s trace=%t: metric %s is %v", w.name, traced, name, m.value)
				}
			}
			check(true, "%s trace=%t: %d metrics named with units", w.name, traced, len(want))
		}
	}
	gateSelftest(check)
	if failures > 0 {
		fmt.Printf("selftest: %d failures\n", failures)
		return 1
	}
	fmt.Println("selftest: all checks passed")
	return 0
}

// gateSelftest proves the correctness gate rejects a wrong reference and
// a nondeterministic response, on both the direct and the HTTP path.
func gateSelftest(ck func(bool, string, ...any)) {
	pts, err := makePoints(DefaultSeed, serveModels([]string{"mlp"}, 1), zooShapes, false)
	if err != nil {
		ck(false, "gate: building points: %v", err)
		return
	}
	p := pts[0]
	direct := func(g *gate) *target {
		t, err := startDirect(g, nil, nil)
		if err != nil {
			ck(false, "gate: %v", err)
			return nil
		}
		return t
	}

	g := newGate()
	orig := p.want[0]
	p.want[0] = nudged(orig, 1)
	if t := direct(g); t != nil {
		t.send(p)
	}
	ck(g.failed(), "gate: a corrupted reference for %s is caught", p.label())
	p.want[0] = orig

	g = newGate()
	if t := direct(g); t != nil {
		t.send(p)
	}
	clean := !g.failed()
	g.checkTensors(p, []*tensor.Tensor{nudged(orig, 0)})
	ck(clean && g.failed(), "gate: a direct response one ulp off an earlier one is caught")

	g = newGate()
	g.checkBody(p, encodeOutputs(nudged(orig, 1)))
	ck(g.failed(), "gate: an HTTP body outside tolerance is caught")

	g = newGate()
	first := g.checkBody(p, encodeOutputs(orig))
	second := g.checkBody(p, encodeOutputs(nudged(orig, 0)))
	ck(first && !second, "gate: an HTTP body one ulp off an earlier one is caught")
}

// nudged returns a copy of t with its first element moved by delta, or
// by one ulp when delta is 0.
func nudged(t *tensor.Tensor, delta float32) *tensor.Tensor {
	c := t.Clone()
	v := c.F32()[0]
	if delta == 0 {
		c.F32()[0] = math.Nextafter32(v, float32(math.Inf(1)))
	} else {
		c.F32()[0] = v + delta
	}
	return c
}

// encodeOutputs renders a v2 response body carrying t as its one output.
func encodeOutputs(t *tensor.Tensor) []byte {
	raw, _ := json.Marshal(t.F32()) // []float32 always marshals
	out := fleet.InferTensor{Name: "output_0", Datatype: fleet.DatatypeFP32, Data: raw}
	for _, d := range t.Shape() {
		out.Shape = append(out.Shape, int64(d))
	}
	body, _ := json.Marshal(fleet.InferResponse{ModelName: "mlp", Outputs: []fleet.InferTensor{out}})
	return body
}
