package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"godisc"
	"godisc/internal/device"
	"godisc/internal/enginecache"
	"godisc/internal/exec"
	"godisc/internal/fleet"
	"godisc/internal/fusion"
	"godisc/internal/graph"
	"godisc/internal/obs"
	"godisc/internal/opt"
	"godisc/internal/serve"
)

// tracedSpec describes a workload's traced run.
type tracedSpec struct {
	served  []*servedModel
	pts     []*point
	deck    []int
	clients int
	dur     time.Duration
	// start builds the system, traced when tr is non-nil. reg is the
	// registry direct engines report to; fleets bring their own.
	start func(tr *obs.Tracer, reg *obs.Registry) (*target, *fleetSys, error)
	// open, when set, is the workload's open-loop phase; the serve and
	// fleet metrics are then taken at that operating point.
	open func(t *target, ph *phase) openLoopStats
}

// traceKeep is how many root spans a traced run writes out.
const traceKeep = 200

// tracedRun measures the per-layer metrics. It first runs the workload's
// closed loop untraced, then builds a second system with the program's
// obs.Tracer installed (ServerConfig.Observer, FleetConfig.Observer,
// WithTracer) and runs the same phases, keeping every span in memory.
// Tracing overhead is traced over untraced closed-loop throughput.
// Finally it times each layer's public functions directly.
func tracedRun(c runConfig, res *result, s tracedSpec) error {
	base, _, err := s.start(nil, nil)
	if err != nil {
		return err
	}
	warm(base, s.pts)
	untraced := beginPhase(math.Inf(1))
	closedLoop(base, s.pts, s.deck, s.clients, s.dur, untraced)
	untraced.end()
	base.close()

	tr, reg := obs.NewTracer(1<<16), obs.NewRegistry()
	t, fs, err := s.start(tr, reg)
	if err != nil {
		return err
	}
	defer t.close()
	if fs != nil {
		reg = fs.reg
	}
	warm(t, s.pts)

	var st0, st1 serve.Stats
	var prom0, prom1 promSnapshot
	snap := func(st *serve.Stats, ps *promSnapshot) {
		if fs != nil {
			*st = fs.srv.Stats()
		}
		*ps = scrape(reg)
	}
	snap(&st0, &prom0)
	var req0, resp0, n0 int64
	if fs != nil {
		req0, resp0, n0 = fs.reqBytes.Load(), fs.respBytes.Load(), fs.responses.Load()
	}
	from := time.Now()
	var win *phase
	var ol openLoopStats
	if s.open != nil {
		win = beginPhase(math.Inf(1))
		ol = s.open(t, win)
		win.end()
	}
	thr := beginPhase(math.Inf(1))
	closedLoop(t, s.pts, s.deck, s.clients, s.dur, thr)
	thr.end()
	if win == nil {
		win = thr
	}
	to := time.Now()
	if s.open != nil {
		to = from.Add(win.wall)
	}
	snap(&st1, &prom1)
	for _, ph := range []*phase{untraced, thr} {
		res.attempted += ph.sent
		res.failed += ph.failed
	}
	if win != thr {
		res.attempted += win.sent
		res.failed += win.failed
	}
	res.notef("counts phase=untraced sent=%d succeeded=%d failed=%d", untraced.sent, untraced.ok, untraced.failed)
	if win != thr {
		res.notef("counts phase=traced-open sent=%d succeeded=%d failed=%d", win.sent, win.ok, win.failed)
	}
	res.notef("counts phase=traced-closed sent=%d succeeded=%d failed=%d", thr.sent, thr.ok, thr.failed)

	roots := tr.Snapshot()
	if total, dropped := tr.Recorded(); dropped > 0 {
		res.notef("trace ring dropped %d of %d root spans (oldest first)", dropped, total)
	}
	var in []obs.SpanData
	for _, r := range roots {
		if !r.Start.Before(from) && r.Start.Before(to) {
			in = append(in, r)
		}
	}
	var agg spanAgg
	for _, r := range in {
		agg.walk(r)
	}
	if err := writeTrace(c, in); err != nil {
		res.notef("trace not written: %v", err)
	}

	busy := agg.kernelMs + agg.libMs + agg.execSelfMs
	res.add("trace.overhead_ratio", "ratio", thr.throughput()/untraced.throughput(),
		fmt.Sprintf("traced %.1f / untraced %.1f req/s", thr.throughput(), untraced.throughput()))
	res.add("kir.kernel_ms_share", "ratio", agg.kernelMs/busy, fmt.Sprintf("kernel spans %.1fms of exec busy %.1fms", agg.kernelMs, busy))
	res.add("tensor.library_ms_share", "ratio", agg.libMs/busy, fmt.Sprintf("library spans %.1fms", agg.libMs))
	res.add("exec.self_ms_p50", "ms", quantile(agg.execSelf, 0.5), fmt.Sprintf("exec span minus kernel/library children, n=%d", len(agg.execSelf)))
	allocs, reuses := prom1.sum("godisc_pool_allocs_total"), prom1.sum("godisc_pool_reuses_total")
	res.add("ral.pool_reuse_ratio", "ratio", reuses/math.Max(allocs+reuses, 1), fmt.Sprintf("reuses %.0f allocs %.0f", reuses, allocs))

	if fs == nil {
		for _, m := range httpLayerMetrics {
			res.absent(m.name, m.unit, "no HTTP or serve layer on this workload")
		}
	} else {
		reqs := float64(max(fs.responses.Load()-n0, 1))
		d := func(f func(serve.Stats) int64) float64 { return float64(f(st1) - f(st0)) }
		completed := math.Max(d(func(s serve.Stats) int64 { return s.Completed }), 1)
		res.add("fleet.self_ms_p50", "ms", quantile(agg.fleetSelf, 0.5), fmt.Sprintf("http span minus infer child, n=%d", len(agg.fleetSelf)))
		res.add("fleet.decode_us_per_kb", "us/KiB", decodeCost(s.pts), "fleet.DecodeInferRequest on the workload's bodies")
		res.add("fleet.req_kb_mean", "KiB", float64(fs.reqBytes.Load()-req0)/1024/reqs, "")
		res.add("fleet.resp_kb_mean", "KiB", float64(fs.respBytes.Load()-resp0)/1024/reqs, "")
		res.add("serve.admit_wait_ms_p99", "ms", quantile(agg.admit, tailQuantile(len(agg.admit))),
			fmt.Sprintf("admit spans (Response.QueueNs does not cross HTTP), p%g of n=%d", tailQuantile(len(agg.admit))*100, len(agg.admit)))
		bruns, breqs := d(func(s serve.Stats) int64 { return s.BatchedRuns }), d(func(s serve.Stats) int64 { return s.BatchedRequests })
		if linger, nl := prom1.histQuantile(prom0, "godisc_batch_linger_ns", 0.5); nl > 0 {
			res.add("serve.batch_linger_ms_p50", "ms", linger/1e6, fmt.Sprintf("godisc_batch_linger_ns, n=%d", nl))
		} else {
			res.absent("serve.batch_linger_ms_p50", "ms", "no batching windows")
		}
		res.add("serve.batched_share", "ratio", breqs/completed, "")
		if bruns > 0 {
			res.add("serve.batch_size_mean", "req", breqs/bruns, fmt.Sprintf("%.0f coalesced runs", bruns))
		} else {
			res.absent("serve.batch_size_mean", "req", "no coalesced runs")
		}
		res.add("serve.self_ms_p50", "ms", quantile(agg.serveSelf, 0.5), fmt.Sprintf("infer span minus children, n=%d", len(agg.serveSelf)))
		res.add("serve.fallback_ratio", "ratio", d(func(s serve.Stats) int64 { return s.FallbackRuns })/completed, "")
		hits, misses := d(func(s serve.Stats) int64 { return s.CacheHits }), d(func(s serve.Stats) int64 { return s.CacheMisses })
		res.add("serve.cache_hit_ratio", "ratio", hits/math.Max(hits+misses, 1), fmt.Sprintf("%.0f hits %.0f misses", hits, misses))
		res.add("serve.engine_loads", "count", d(func(s serve.Stats) int64 { return s.EngineLoads }), "")
		res.add("serve.compilations", "count", d(func(s serve.Stats) int64 { return s.Compilations }), "")
		if len(agg.reload) > 0 {
			res.add("serve.reload_ms_p50", "ms", quantile(agg.reload, 0.5), fmt.Sprintf("cache-lookup spans that loaded a persisted engine, n=%d", len(agg.reload)))
		} else {
			res.absent("serve.reload_ms_p50", "ms", "no engine reloads")
		}
		ev := prom1.sum("godisc_fleet_evictions_total") - prom0.sum("godisc_fleet_evictions_total")
		res.add("fleet.evictions_per_kreq", "count", ev*1000/reqs, fmt.Sprintf("%.0f evictions", ev))
		res.add("ral.governor_waits", "count", d(func(s serve.Stats) int64 { return s.MemWaits }), "run reservations that queued")
		reserved := float64(st1.MemHighWaterBytes + fs.fgov.Stats().HighWaterBytes)
		res.add("ral.reserved_to_heap_ratio", "ratio", reserved/float64(max(win.peak, 1)),
			fmt.Sprintf("ledger high-water %.0fB (runs + resident) over peak heap %dB", reserved, win.peak))
		res.add("client.rtt_minus_server_ms", "ms", quantile(agg.clientRTT, 0.5)-quantile(agg.httpDur, 0.5),
			"median client round trip minus median server http span")
		if s.open != nil {
			res.add("client.gen_lag_p99_ms", "ms", quantile(ol.timerLag, 0.99), fmt.Sprintf("n=%d", len(ol.timerLag)))
			if msg := olInvalid(ol); msg != "" {
				res.invalid = msg
			}
		} else {
			res.absent("client.gen_lag_p99_ms", "ms", "closed loop, no schedule")
		}
	}
	if err := probeStages(c.dir, s.served, res); err != nil {
		return err
	}
	return probeExec(s.served, s.pts, res)
}

// httpLayerMetrics are the per-layer metrics only the HTTP workloads
// exercise.
var httpLayerMetrics = []struct{ name, unit string }{
	{"fleet.self_ms_p50", "ms"}, {"fleet.decode_us_per_kb", "us/KiB"}, {"fleet.req_kb_mean", "KiB"},
	{"fleet.resp_kb_mean", "KiB"}, {"serve.admit_wait_ms_p99", "ms"}, {"serve.batch_linger_ms_p50", "ms"},
	{"serve.batched_share", "ratio"}, {"serve.batch_size_mean", "req"}, {"serve.self_ms_p50", "ms"},
	{"serve.fallback_ratio", "ratio"}, {"serve.cache_hit_ratio", "ratio"}, {"serve.engine_loads", "count"},
	{"serve.compilations", "count"}, {"serve.reload_ms_p50", "ms"}, {"fleet.evictions_per_kreq", "count"},
	{"ral.governor_waits", "count"}, {"ral.reserved_to_heap_ratio", "ratio"},
	{"client.rtt_minus_server_ms", "ms"}, {"client.gen_lag_p99_ms", "ms"},
}

// spanAgg accumulates per-layer times from span trees.
type spanAgg struct {
	kernelMs, libMs, execSelfMs float64
	execSelf                    []float64
	fleetSelf, httpDur          []float64
	serveSelf, admit, reload    []float64
	clientRTT                   []float64
}

func (a *spanAgg) walk(d obs.SpanData) {
	dur := float64(d.DurNs) / 1e6
	switch d.Name {
	case "exec":
		for _, ch := range d.Children {
			switch ch.Name {
			case "kernel":
				a.kernelMs += float64(ch.DurNs) / 1e6
			case "library":
				a.libMs += float64(ch.DurNs) / 1e6
			}
		}
		self := selfMs(d)
		a.execSelf = append(a.execSelf, self)
		a.execSelfMs += self
	case "http":
		if strings.HasSuffix(d.Attrs["route"], "/infer") {
			a.fleetSelf = append(a.fleetSelf, selfMs(d))
			a.httpDur = append(a.httpDur, dur)
		}
	case "infer":
		a.serveSelf = append(a.serveSelf, selfMs(d))
	case "admit":
		a.admit = append(a.admit, dur)
	case "cache-lookup":
		if d.Attrs["persisted"] == "true" {
			a.reload = append(a.reload, dur)
		}
	case "bench.request":
		a.clientRTT = append(a.clientRTT, dur)
	}
	for _, ch := range d.Children {
		a.walk(ch)
	}
}

// selfMs is a span's duration minus the part of it its children cover
// (their union, so overlapping parallel children count once).
func selfMs(d obs.SpanData) float64 {
	start, end := d.Start, d.Start.Add(time.Duration(d.DurNs))
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, ch := range d.Children {
		a, b := ch.Start, ch.Start.Add(time.Duration(ch.DurNs))
		if a.Before(start) {
			a = start
		}
		if b.After(end) {
			b = end
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	for i := 1; i < len(ivs); i++ { // insertion sort: children arrive nearly ordered
		for j := i; j > 0 && ivs[j].a.Before(ivs[j-1].a); j-- {
			ivs[j], ivs[j-1] = ivs[j-1], ivs[j]
		}
	}
	var covered time.Duration
	var cur iv
	for i, v := range ivs {
		if i == 0 || v.a.After(cur.b) {
			if i > 0 {
				covered += cur.b.Sub(cur.a)
			}
			cur = v
			continue
		}
		if v.b.After(cur.b) {
			cur.b = v.b
		}
	}
	if len(ivs) > 0 {
		covered += cur.b.Sub(cur.a)
	}
	return float64(time.Duration(d.DurNs)-covered) / 1e6
}

// writeTrace writes the last traceKeep root spans of the traced window to
// .bench_build/traces/<workload>-seed<n>.json.
func writeTrace(c runConfig, roots []obs.SpanData) error {
	if len(roots) > traceKeep {
		roots = roots[len(roots)-traceKeep:]
	}
	dir := filepath.Join(".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	raw, err := json.Marshal(roots)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", c.name, c.seed)), raw, 0o644)
}

// promSnapshot is a parsed Prometheus text scrape: series line → value.
type promSnapshot map[string]float64

func scrape(reg *obs.Registry) promSnapshot {
	var buf bytes.Buffer
	_ = reg.WritePrometheus(&buf) // writes to a bytes.Buffer cannot fail
	out := promSnapshot{}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// sum adds every series of a metric name.
func (p promSnapshot) sum(name string) float64 {
	var s float64
	for k, v := range p {
		if k == name || strings.HasPrefix(k, name+"{") {
			s += v
		}
	}
	return s
}

// histQuantile estimates quantile q of the observations a histogram
// received between base and p, interpolating within buckets; it returns
// the estimate and the observation count.
func (p promSnapshot) histQuantile(base promSnapshot, name string, q float64) (float64, int) {
	type bucket struct{ le, n float64 }
	var bs []bucket
	for k, v := range p {
		if !strings.HasPrefix(k, name+"_bucket{") {
			continue
		}
		i := strings.Index(k, `le="`)
		le, err := strconv.ParseFloat(strings.TrimSuffix(k[i+4:], `"}`), 64)
		if err != nil {
			le = math.Inf(1)
		}
		bs = append(bs, bucket{le, v - base[k]})
	}
	if len(bs) == 0 {
		return 0, 0
	}
	for i := 1; i < len(bs); i++ {
		for j := i; j > 0 && bs[j].le < bs[j-1].le; j-- {
			bs[j], bs[j-1] = bs[j-1], bs[j]
		}
	}
	total := bs[len(bs)-1].n
	if total == 0 {
		return 0, 0
	}
	rank := q * total
	prevLe, prevN := 0.0, 0.0
	for _, b := range bs {
		if b.n >= rank {
			if math.IsInf(b.le, 1) {
				return prevLe, int(total)
			}
			return prevLe + (b.le-prevLe)*(rank-prevN)/math.Max(b.n-prevN, 1), int(total)
		}
		prevLe, prevN = b.le, b.n
	}
	return prevLe, int(total)
}

// decodeCost times fleet.DecodeInferRequest over every point's body and
// returns microseconds per KiB.
func decodeCost(pts []*point) float64 {
	var total time.Duration
	var kb float64
	for rep := 0; rep < 5; rep++ {
		for _, p := range pts {
			t0 := time.Now()
			if _, _, err := fleet.DecodeInferRequest(p.body); err != nil {
				return math.NaN()
			}
			total += time.Since(t0)
			kb += float64(len(p.body)) / 1024
		}
	}
	return float64(total.Microseconds()) / kb
}

// probeStages times each compile and cache stage's public function on
// every model the workload serves (version 1), median of three repeats
// per model, and reports stage totals over the models and per-model
// medians for the image/cache stages.
func probeStages(dir string, served []*servedModel, res *result) error {
	cacheDir, err := os.MkdirTemp(dir, "stages-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(cacheDir)
	ec, err := enginecache.Open(cacheDir, "perfbench")
	if err != nil {
		return err
	}
	const reps = 3
	var parse, optMs, plan, compile, nodes, groups float64
	var enc, dec, persist, load []float64
	for _, sm := range served {
		if sm.version != "1" {
			continue
		}
		var t [8][]float64
		for r := 0; r < reps; r++ {
			t0 := time.Now()
			g, err := graph.ParseText(sm.text)
			if err != nil {
				return err
			}
			t1 := time.Now()
			if _, err := opt.Default().Run(g); err != nil {
				return err
			}
			t2 := time.Now()
			p, err := fusion.NewPlanner(fusion.DefaultConfig()).Plan(g)
			if err != nil {
				return err
			}
			t3 := time.Now()
			eo := exec.DefaultOptions()
			eo.Workers = exec.DefaultWorkers()
			exe, err := exec.Compile(g, p, device.A10(), eo)
			if err != nil {
				return err
			}
			t4 := time.Now()
			img, err := exe.EncodeImage()
			if err != nil {
				return err
			}
			t5 := time.Now()
			key := fmt.Sprintf("%s@%d", sm.name, r)
			if err := ec.Persist(&enginecache.Entry{Key: key, Payload: img}); err != nil {
				return err
			}
			t6 := time.Now()
			ent, err := ec.Load(key)
			if err != nil || ent == nil {
				return fmt.Errorf("enginecache load %s: %v", key, err)
			}
			t7 := time.Now()
			if _, err := exec.DecodeImage(ent.Payload, device.A10(), eo); err != nil {
				return err
			}
			t8 := time.Now()
			stamps := []time.Time{t0, t1, t2, t3, t4, t5, t6, t7, t8}
			for i := range t {
				t[i] = append(t[i], ms(stamps[i+1].Sub(stamps[i])))
			}
			nodes, groups = nodes+float64(len(g.Nodes()))/reps, groups+float64(len(p.Groups))/reps
		}
		med := func(i int) float64 { return quantile(t[i], 0.5) }
		parse, optMs, plan, compile = parse+med(0), optMs+med(1), plan+med(2), compile+med(3)
		enc, persist, load, dec = append(enc, med(4)), append(persist, med(5)), append(load, med(6)), append(dec, med(7))
		res.notef("stage %-8s parse=%.3fms opt=%.3fms fusion=%.3fms compile=%.3fms encode=%.3fms persist=%.3fms load=%.3fms decode=%.3fms",
			sm.name, med(0), med(1), med(2), med(3), med(4), med(5), med(6), med(7))
	}
	note := fmt.Sprintf("sum over %d models", len(enc))
	res.add("graph.parse_ms", "ms", parse, note)
	res.add("opt.run_ms", "ms", optMs, note)
	res.add("opt.nodes_after", "count", nodes, note)
	res.add("fusion.plan_ms", "ms", plan, note)
	res.add("fusion.groups", "count", groups, note)
	res.add("exec.compile_ms", "ms", compile, note+"; codegen plus kir finalize")
	note = fmt.Sprintf("median over %d models", len(enc))
	res.add("exec.encode_image_ms_p50", "ms", quantile(enc, 0.5), note)
	res.add("exec.decode_image_ms_p50", "ms", quantile(dec, 0.5), note)
	res.add("enginecache.persist_ms_p50", "ms", quantile(persist, 0.5), note)
	res.add("enginecache.load_ms_p50", "ms", quantile(load, 0.5), note)
	return nil
}

// probeExec runs every distinct point of the workload directly on
// engines compiled at workers=1 and at the default worker count, for the
// execution-layer counts and the parallel speedup.
func probeExec(served []*servedModel, pts []*point, res *result) error {
	byKey := map[string]*servedModel{}
	for _, sm := range served {
		byKey[sm.key()] = sm
	}
	keyOf := func(p *point) string {
		if p.version == "" {
			return p.model + ":1"
		}
		return p.model + ":" + p.version
	}
	build := func(workers int) (map[string]*godisc.Engine, error) {
		out := map[string]*godisc.Engine{}
		for k, sm := range byKey {
			g, err := godisc.ParseGraph(sm.text)
			if err != nil {
				return nil, err
			}
			if out[k], err = godisc.CompileWith(g, godisc.WithWorkers(workers)); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	seq, err := build(1)
	if err != nil {
		return err
	}
	par, err := build(godisc.DefaultWorkers())
	if err != nil {
		return err
	}
	pass := func(engs map[string]*godisc.Engine, f func(*godisc.Result)) (time.Duration, error) {
		t0 := time.Now()
		for _, p := range pts {
			r, err := engs[keyOf(p)].Run(p.inputs)
			if err != nil {
				return 0, fmt.Errorf("%s: %w", p.label(), err)
			}
			if f != nil {
				f(r)
			}
		}
		return time.Since(t0), nil
	}
	noop := func(*godisc.Result) {}
	if _, err := pass(seq, noop); err != nil {
		return err
	}
	if _, err := pass(par, noop); err != nil {
		return err
	}
	var t1s, tns []float64
	var kernWall float64
	for rep := 0; rep < 3; rep++ {
		kernWall = 0
		d1, err := pass(seq, func(r *godisc.Result) { kernWall += r.Profile.KernelWallNs })
		if err != nil {
			return err
		}
		dn, err := pass(par, nil)
		if err != nil {
			return err
		}
		t1s, tns = append(t1s, ms(d1)), append(tns, ms(dn))
	}
	var launches, parts, bytesMoved, flops float64
	u0 := readUsage()
	if _, err := pass(par, func(r *godisc.Result) {
		launches += float64(r.Profile.Launches)
		parts += float64(r.Profile.Partitions)
		bytesMoved += r.Profile.BytesMoved
		flops += r.Profile.Flops
	}); err != nil {
		return err
	}
	u := readUsage().sub(u0)
	n := float64(len(pts))
	res.notef("exec probe over %d points: w=1 pass %.2fms (kernel wall %.2fms, %.0f%%), w=%d pass %.2fms",
		len(pts), quantile(t1s, 0.5), kernWall/1e6, 100*kernWall/1e6/quantile(t1s, 0.5), godisc.DefaultWorkers(), quantile(tns, 0.5))
	res.add("exec.allocs_per_run", "count", float64(u.allocObjs)/n, "Go heap objects per Engine.Run")
	res.add("exec.launches_per_run", "count", launches/n, "")
	res.add("exec.partitions_per_run", "count", parts/n, "")
	res.add("exec.parallel_speedup", "ratio", quantile(t1s, 0.5)/quantile(tns, 0.5), fmt.Sprintf("w=1 over w=%d, same points", godisc.DefaultWorkers()))
	res.add("kir.bytes_per_run", "B", bytesMoved/n, "computed from tensor sizes by the device cost model (Profile.BytesMoved)")
	res.add("tensor.flops_per_run", "flop", flops/n, "computed from tensor sizes by the device cost model (Profile.Flops)")
	return nil
}
