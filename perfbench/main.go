// Command perfbench is godisc's measured-performance benchmark: real
// wall clock, process CPU and Go heap on three seeded workloads driven
// through the public entry points, with every output checked against a
// graph.Evaluate reference. See README.md for the workloads, the metrics
// and how each layer's metric is expected to move.
//
//	perfbench --workload zoo-direct --seed 1 --seconds 10 --trace 0
//	perfbench --selftest
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}; the lines before it are
// the human-readable report (metadata, sample counts, every metric with
// its unit, and per-layer metrics a workload does not exercise marked
// absent). Exit status: 0 success, 1 an output failed the correctness
// gate, 2 usage or setup error, 3 the run was invalid (open-loop
// generator fell behind).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// DefaultSeed is the seed runs use unless told otherwise; HeldOutSeed is
// reserved for confirming a claimed gain on a seed not used while the
// change was written.
const (
	DefaultSeed = 1
	HeldOutSeed = 7919
)

// metric is one reported figure. absent marks a per-layer metric the
// workload does not exercise: it is printed as absent, never as zero.
type metric struct {
	name   string
	unit   string
	value  float64
	note   string
	absent bool
}

// e2eMetrics names every end-to-end metric, in BENCHMARK.json order.
var e2eMetrics = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"throughput_rps", "req/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"latency_geomean_ms", "ms"},
	{"slo_attain", "ratio"},
	{"cpu_ms_per_req", "ms"},
	{"alloc_kb_per_req", "KiB"},
	{"peak_heap_mb", "MiB"},
}

// jsonLayerMetrics are the per-layer metrics every workload exercises;
// they form the result line of a traced run. The serve, fleet and client
// metrics only the HTTP workloads exercise are in the report lines.
var jsonLayerMetrics = []string{
	"graph.parse_ms", "opt.run_ms", "opt.nodes_after", "fusion.plan_ms", "fusion.groups",
	"exec.compile_ms", "exec.encode_image_ms_p50", "exec.decode_image_ms_p50",
	"enginecache.persist_ms_p50", "enginecache.load_ms_p50",
	"kir.kernel_ms_share", "tensor.library_ms_share", "exec.self_ms_p50",
	"exec.allocs_per_run", "exec.launches_per_run", "exec.partitions_per_run",
	"exec.parallel_speedup", "ral.pool_reuse_ratio", "kir.bytes_per_run",
	"tensor.flops_per_run", "trace.overhead_ratio",
}

// runConfig is what every workload receives.
type runConfig struct {
	seed    uint64
	seconds float64
	trace   bool
	name    string
	dir     string // private scratch directory inside the checkout
}

// result is a workload's outcome.
type result struct {
	metrics   []metric
	attempted int
	failed    int
	gate      *gate
	report    []string
	invalid   string
}

func (r *result) add(name, unit string, v float64, note string) {
	r.metrics = append(r.metrics, metric{name: name, unit: unit, value: v, note: note})
}

func (r *result) absent(name, unit, why string) {
	r.metrics = append(r.metrics, metric{name: name, unit: unit, absent: true, note: why})
}

func (r *result) notef(format string, args ...any) {
	r.report = append(r.report, fmt.Sprintf(format, args...))
}

// workload is one benchmark workload.
type workload struct {
	name string
	why  string
	run  func(c runConfig) (*result, error)
}

func workloads() []workload {
	return []workload{
		{"zoo-direct", "closed loop on Engine.Run over all 7 zoo models: generated kernels, library ops and scheduling, no serving layers", runZooDirect},
		{"fleet-http", "open-loop Poisson v2 JSON traffic with dynamic batching: fleet codec and serve admission/linger dominate", runFleetHTTP},
		{"fleet-churn", "7 models x 2 versions under a third of their footprint: engine-cache persist, evict and reload beside hits", runFleetChurn},
	}
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	name := flag.String("workload", "", "workload: zoo-direct, fleet-http or fleet-churn")
	seed := flag.Uint64("seed", DefaultSeed, "input seed (same seed, same inputs)")
	seconds := flag.Float64("seconds", 10, "measured seconds per phase")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	selftest := flag.Bool("selftest", false, "run every workload briefly and check the benchmark itself")
	flag.Parse()

	if err := checkSourceTree(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if *selftest {
		return runSelftest()
	}
	var w *workload
	for _, cand := range workloads() {
		if cand.name == *name {
			w = &cand
			break
		}
	}
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (zoo-direct|fleet-http|fleet-churn), --seconds > 0, --trace 0|1\n")
		return 2
	}
	res, err := runWorkload(*w, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	return emit(os.Stdout, *w, *seed, *seconds, *trace == 1, res)
}

// checkSourceTree refuses to run outside a godisc checkout: the benchmark
// measures the program built from the tree it runs in.
func checkSourceTree() error {
	if _, err := os.Stat("godisc.go"); err != nil {
		return errors.New("run from the root of a godisc checkout")
	}
	return nil
}

// runWorkload runs w in a fresh scratch directory under .bench_build,
// removed afterwards.
func runWorkload(w workload, seed uint64, seconds float64, trace bool) (*result, error) {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(".bench_build", "run-"+w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	return w.run(runConfig{name: w.name, seed: seed, seconds: seconds, trace: trace, dir: abs})
}

// emit prints the report and the result line and returns the exit code.
func emit(out *os.File, w workload, seed uint64, seconds float64, trace bool, res *result) int {
	fmt.Fprintf(out, "workload %s: %s\n", w.name, w.why)
	fmt.Fprintf(out, "meta seed=%d seconds=%g trace=%t nproc=%d gomaxprocs=%d go=%s commit=%s\n",
		seed, seconds, trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), sourceID())
	for _, l := range res.report {
		fmt.Fprintln(out, l)
	}
	if res.invalid != "" {
		fmt.Fprintf(out, "INVALID run: %s\n", res.invalid)
		return 3
	}
	correct := !res.gate.failed()
	for _, e := range res.gate.errs {
		fmt.Fprintf(out, "GATE FAILURE %s\n", e)
	}
	want := jsonLayerMetrics
	if !trace {
		want = nil
		for _, m := range e2eMetrics {
			want = append(want, m.name)
		}
	}
	byName := map[string]metric{}
	for _, m := range res.metrics {
		byName[m.name] = m
		if m.absent {
			fmt.Fprintf(out, "metric %-28s absent  (%s)\n", m.name, m.note)
			continue
		}
		fmt.Fprintf(out, "metric %-28s %-14.6g %-6s %s\n", m.name, m.value, m.unit, m.note)
	}
	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]jm{}
	for _, name := range want {
		m, ok := byName[name]
		if !ok || m.absent {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s missing from %s\n", name, w.name)
			return 2
		}
		ms[name] = jm{Value: m.value, Unit: m.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]jm `json:"metrics"`
	}{correct, res.attempted, res.failed, ms})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	fmt.Fprintln(out, string(line))
	if !correct {
		return 1
	}
	return 0
}

// sourceID identifies the measured code: the git commit when the tree is
// a git checkout, else "unknown" (the build still comes from the tree).
func sourceID() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if !strings.HasPrefix(ref, "ref: ") {
		return ref
	}
	ref = strings.TrimPrefix(ref, "ref: ")
	if id, err := os.ReadFile(filepath.Join(".git", filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, err := os.ReadFile(filepath.Join(".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, l := range strings.Split(string(packed), "\n") {
		if f := strings.Fields(l); len(f) == 2 && f[1] == ref {
			return f[0]
		}
	}
	return "unknown"
}
