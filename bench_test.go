package godisc

// One testing.B benchmark per table/figure of the paper reproduction
// (experiment index in DESIGN.md §4). Each benchmark drives the
// corresponding internal/bench experiment and reports its headline numbers
// as custom metrics, so `go test -bench=.` regenerates the whole
// evaluation. cmd/discbench prints the full tables.

import (
	"testing"

	"godisc/internal/bench"
	"godisc/internal/models"
	"godisc/internal/tensor"
)

// benchCfg is sized so the full `-bench=.` run completes in seconds while
// keeping every mechanism (cache misses, tuning budgets, padding) active.
func benchCfg() bench.Config {
	cfg := bench.DefaultConfig()
	cfg.Requests = 60
	return cfg
}

// BenchmarkE1ModelSuite regenerates the model-inventory table.
func BenchmarkE1ModelSuite(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.ModelSuite(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 7 {
			b.Fatalf("rows %d", len(rows))
		}
	}
}

// benchEndToEnd shares the E2/E3 driver across devices.
func benchEndToEnd(b *testing.B, device string) {
	cfg := benchCfg()
	cfg.Device = device
	var res *bench.EndToEndResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = bench.EndToEnd(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, base := range bench.BaselineOrder {
		b.ReportMetric(res.MeanSpeedup[base], "mean_x_"+base)
	}
}

// BenchmarkE2EndToEndA10 regenerates the A10 end-to-end speedup figure.
func BenchmarkE2EndToEndA10(b *testing.B) { benchEndToEnd(b, "A10") }

// BenchmarkE3EndToEndT4 regenerates the T4 end-to-end speedup figure.
func BenchmarkE3EndToEndT4(b *testing.B) { benchEndToEnd(b, "T4") }

// BenchmarkE4Ablation regenerates the contribution-breakdown figure.
func BenchmarkE4Ablation(b *testing.B) {
	cfg := benchCfg()
	cfg.Models = []string{"bert", "gpt2"}
	var rows []bench.AblationRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = bench.Ablation(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	full := rows[len(rows)-1]
	b.ReportMetric(full.SpeedupOverBase["bert"], "bert_full_x")
	b.ReportMetric(full.SpeedupOverBase["gpt2"], "gpt2_full_x")
}

// BenchmarkE5ShapeDiversity regenerates the shape-diversity sweep.
func BenchmarkE5ShapeDiversity(b *testing.B) {
	cfg := benchCfg()
	var pts []bench.DiversityPoint
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = bench.ShapeDiversity(cfg, "bert", []int{1, 4, 16, 64})
		if err != nil {
			b.Fatal(err)
		}
	}
	last := pts[len(pts)-1]
	b.ReportMetric(last.NsPerRequest["XLA"]/last.NsPerRequest["BladeDISC"], "xla_vs_disc_at_64")
}

// BenchmarkE6FusionStats regenerates the fusion-statistics table.
func BenchmarkE6FusionStats(b *testing.B) {
	cfg := benchCfg()
	cfg.Models = []string{"bert", "gpt2", "seq2seq"}
	var rows []bench.FusionStatsRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = bench.FusionStats(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].LaunchesUnfused/rows[0].LaunchesFused, "bert_launch_reduction")
}

// BenchmarkE7ConstraintAblation regenerates the constraint-granularity
// figure.
func BenchmarkE7ConstraintAblation(b *testing.B) {
	cfg := benchCfg()
	cfg.Models = []string{"bert"}
	var rows []bench.ConstraintRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = bench.ConstraintAblation(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rows[0].Kernels["bert"])/float64(rows[len(rows)-1].Kernels["bert"]),
		"kernel_reduction_full_vs_static")
}

// BenchmarkE8Specialization regenerates the variant-dispatch table.
func BenchmarkE8Specialization(b *testing.B) {
	var rows []bench.SpecializationRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = bench.Specialization(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	best := 1.0
	for _, r := range rows {
		if g := r.NsOff / r.NsOn; g > best {
			best = g
		}
	}
	b.ReportMetric(best, "best_variant_gain_x")
}

// BenchmarkE9CompileCache regenerates the compilation-cache table.
func BenchmarkE9CompileCache(b *testing.B) {
	var rows []bench.CacheRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = bench.CompileCache(benchCfg(), "bert")
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Trace == "churn" && r.Strategy == "BladeDISC" {
			b.ReportMetric(float64(r.Compiles), "disc_compiles_on_churn")
		}
		if r.Trace == "churn" && r.Strategy == "XLA" {
			b.ReportMetric(float64(r.Compiles), "xla_compiles_on_churn")
		}
	}
}

// BenchmarkCompiledInference measures the real (wall-clock) cost of one
// compiled inference through the kernel interpreter — the substrate's own
// speed, not the simulated device time.
func BenchmarkCompiledInference(b *testing.B) {
	for _, name := range []string{"bert", "gpt2", "dlrm"} {
		b.Run(name, func(b *testing.B) {
			m, err := models.ByName(name)
			if err != nil {
				b.Fatal(err)
			}
			eng, err := CompileWith(m.Build())
			if err != nil {
				b.Fatal(err)
			}
			r := tensor.NewRNG(1)
			ins := m.GenInputs(r, 2, 16)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Run(ins); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCompilation measures wall-clock compilation latency: the whole
// pipeline from model build through codegen.
func BenchmarkCompilation(b *testing.B) {
	m, err := models.ByName("bert")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := CompileWith(m.Build()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE10Memory regenerates the device-memory residency table.
func BenchmarkE10Memory(b *testing.B) {
	cfg := benchCfg()
	cfg.Models = []string{"bert", "gpt2"}
	cfg.Requests = 10
	var rows []bench.MemoryRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = bench.MemoryFootprint(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rows[0].PeakUnplannedBytes)/float64(rows[0].PeakPlannedBytes), "bert_mem_saving_x")
}

// BenchmarkE11Adaptive regenerates the shape-feedback lifecycle table.
func BenchmarkE11Adaptive(b *testing.B) {
	var rows []bench.AdaptiveRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = bench.AdaptiveSpeculation(benchCfg(), "bert")
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].UsPerRequest/rows[2].UsPerRequest, "hot_shape_gain_x")
}

// BenchmarkE14ParallelScaling regenerates the host-parallelism scaling
// curve: modeled DAG-makespan speedup per worker count, the measured
// wall-clock ratio on this host, and the bit-identity proof (1 = every
// parallel output matched the sequential engine bit for bit).
func BenchmarkE14ParallelScaling(b *testing.B) {
	var rows []bench.ParallelRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = bench.ParallelScaling(benchCfg(), []int{1, 2, 4, 8})
		if err != nil {
			b.Fatal(err)
		}
	}
	identical := 1.0
	for _, r := range rows {
		if !r.BitIdentical {
			identical = 0
		}
		switch r.Workers {
		case 2:
			b.ReportMetric(r.Speedup, "speedup_w2")
		case 4:
			b.ReportMetric(r.Speedup, "speedup_w4")
			b.ReportMetric(r.WallSpeedup, "wall_speedup_w4")
		case 8:
			b.ReportMetric(r.Speedup, "speedup_w8")
		}
	}
	b.ReportMetric(identical, "bit_identical")
}

// BenchmarkE15DynamicBatching regenerates the dynamic-batching saturation
// table: modeled per-request device time solo vs inside a full coalescing
// window, the throughput and FCFS-p99 both imply at 32 saturated clients,
// and the real-server engagement + bit-identity proof.
func BenchmarkE15DynamicBatching(b *testing.B) {
	var rows []bench.BatchingRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = bench.DynamicBatching(benchCfg(), 8, 32)
		if err != nil {
			b.Fatal(err)
		}
	}
	identical := 1.0
	for _, r := range rows {
		if !r.BitIdentical {
			identical = 0
		}
		b.ReportMetric(r.Throughput, "throughput_"+r.Model)
		b.ReportMetric(r.SoloP99Us/r.BatchedP99Us, "p99_gain_"+r.Model)
		b.ReportMetric(float64(r.BatchedRuns), "batched_runs_"+r.Model)
	}
	b.ReportMetric(identical, "bit_identical")
}

// BenchmarkE16ColdStart regenerates the cold-start table: time to first
// response cold vs warm restart (persistent engine cache) and sync vs
// async compile, plus the warm run's zero-compile and bit-identity proofs.
func BenchmarkE16ColdStart(b *testing.B) {
	var rows []bench.ColdStartRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = bench.ColdStart(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	identical := 1.0
	var warmCompiles float64
	for _, r := range rows {
		if !r.BitIdentical {
			identical = 0
		}
		warmCompiles += float64(r.WarmCompiles)
		b.ReportMetric(r.ColdSyncMs/r.WarmSyncMs, "warm_speedup_"+r.Model)
		b.ReportMetric(r.ColdSyncMs/r.ColdAsyncMs, "async_ttfr_gain_"+r.Model)
	}
	b.ReportMetric(warmCompiles, "warm_compilations")
	b.ReportMetric(identical, "bit_identical")
}

// BenchmarkE12ScaleSweep regenerates the model-width sweep.
func BenchmarkE12ScaleSweep(b *testing.B) {
	cfg := benchCfg()
	cfg.Requests = 40
	var rows []bench.ScaleRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = bench.ScaleSweep(cfg, []int{16, 64, 256})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].Speedup["PyTorch"], "pytorch_x_at_h16")
	b.ReportMetric(rows[len(rows)-1].Speedup["PyTorch"], "pytorch_x_at_h256")
}
