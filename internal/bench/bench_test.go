package bench

import (
	"bytes"
	"strings"
	"testing"
)

// quick returns a small config restricted to fast models.
func quick(models ...string) Config {
	c := QuickConfig()
	c.Requests = 20
	c.Models = models
	return c
}

func TestModelSuiteTable(t *testing.T) {
	rows, err := ModelSuite(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.Ops == 0 || r.ParamBytes == 0 {
			t.Fatalf("row %+v empty", r)
		}
	}
	var buf bytes.Buffer
	PrintModelSuite(&buf, rows)
	if !strings.Contains(buf.String(), "bert") {
		t.Fatal("table missing bert")
	}
}

func TestEndToEndShape(t *testing.T) {
	res, err := EndToEnd(quick("dlrm", "gpt2"))
	if err != nil {
		t.Fatal(err)
	}
	// The paper's headline: BladeDISC beats eager everywhere.
	for _, m := range res.ModelOrder {
		if res.Speedup[m]["PyTorch"] <= 1 {
			t.Fatalf("%s: PyTorch speedup %.2f must exceed 1", m, res.Speedup[m]["PyTorch"])
		}
		if res.Speedup[m]["TorchScript"] <= 1 {
			t.Fatalf("%s: TorchScript speedup %.2f must exceed 1", m, res.Speedup[m]["TorchScript"])
		}
	}
	// Eager is the slowest baseline family.
	if res.MeanSpeedup["PyTorch"] <= res.MeanSpeedup["XLA"] {
		t.Fatalf("PyTorch (%.2f) must be slower than XLA (%.2f)",
			res.MeanSpeedup["PyTorch"], res.MeanSpeedup["XLA"])
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "BladeDISC speedup") {
		t.Fatal("print output malformed")
	}
}

func TestAblationMonotone(t *testing.T) {
	rows, err := Ablation(quick("gpt2"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("%d rows", len(rows))
	}
	// Each added optimization must not slow things down, and the full
	// configuration must be a real improvement.
	prev := 0.0
	for _, r := range rows {
		sp := r.SpeedupOverBase["gpt2"]
		if sp+1e-9 < prev {
			t.Fatalf("ablation not monotone: %q %.3f after %.3f", r.Config, sp, prev)
		}
		prev = sp
	}
	if prev < 1.5 {
		t.Fatalf("full configuration speedup %.2f too small", prev)
	}
	// Launch counts must fall as fusion kinds come in.
	if rows[len(rows)-1].Launches["gpt2"] >= rows[0].Launches["gpt2"] {
		t.Fatal("fusion must reduce launches")
	}
}

func TestShapeDiversityCliffs(t *testing.T) {
	cfg := quick()
	pts, err := ShapeDiversity(cfg, "gpt2", []int{1, 8, 16})
	if err != nil {
		t.Fatal(err)
	}
	// BladeDISC per-request time must be (nearly) flat in shape count...
	first := pts[0].NsPerRequest["BladeDISC"]
	last := pts[len(pts)-1].NsPerRequest["BladeDISC"]
	if last > first*1.5 {
		t.Fatalf("BladeDISC must be flat: %.0f -> %.0f", first, last)
	}
	// ...while XLA grows with it (one compile per distinct shape).
	if pts[len(pts)-1].NsPerRequest["XLA"] <= pts[0].NsPerRequest["XLA"]*2 {
		t.Fatalf("XLA must degrade with diversity: %.0f -> %.0f",
			pts[0].NsPerRequest["XLA"], pts[len(pts)-1].NsPerRequest["XLA"])
	}
}

func TestFusionStatsReduction(t *testing.T) {
	rows, err := FusionStats(quick("gpt2"))
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.KernelsByPolicy["stitch"] >= r.KernelsByPolicy["none"] {
		t.Fatalf("fusion must reduce kernels: %v", r.KernelsByPolicy)
	}
	if r.LaunchesFused >= r.LaunchesUnfused {
		t.Fatalf("fusion must reduce launches: %f vs %f", r.LaunchesFused, r.LaunchesUnfused)
	}
	if r.BytesFused >= r.BytesUnfused {
		t.Fatalf("fusion must reduce traffic: %f vs %f", r.BytesFused, r.BytesUnfused)
	}
}

func TestConstraintAblationMonotoneKernels(t *testing.T) {
	rows, err := ConstraintAblation(quick("gpt2"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	prev := 1 << 30
	for _, r := range rows {
		k := r.Kernels["gpt2"]
		if k > prev {
			t.Fatalf("stronger oracle must not increase kernels: %q %d after %d", r.Oracle, k, prev)
		}
		prev = k
	}
	if rows[0].Kernels["gpt2"] <= rows[len(rows)-1].Kernels["gpt2"] {
		t.Fatal("oracle strength must matter")
	}
	// Time must improve alongside.
	if rows[len(rows)-1].NsPerRequest["gpt2"] >= rows[0].NsPerRequest["gpt2"] {
		t.Fatal("full oracle must be faster than static-only")
	}
}

func TestSpecializationGains(t *testing.T) {
	rows, err := Specialization(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sawGain := false
	for _, r := range rows {
		if r.NsOn > r.NsOff*1.001 {
			t.Fatalf("%s %s: specialization made it slower (%.0f vs %.0f)",
				r.Kernel, r.Shape, r.NsOn, r.NsOff)
		}
		if r.NsOff/r.NsOn > 1.03 {
			sawGain = true
		}
	}
	if !sawGain {
		t.Fatal("no shape point showed a specialization gain")
	}
}

func TestCompileCacheMechanisms(t *testing.T) {
	cfg := quick()
	cfg.Requests = 30
	rows, err := CompileCache(cfg, "gpt2")
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]CacheRow{}
	for _, r := range rows {
		byKey[r.Trace+"/"+r.Strategy] = r
	}
	// Symbolic keying: one compile on every trace.
	for _, tr := range []string{"churn", "zipf"} {
		if got := byKey[tr+"/BladeDISC"].Compiles; got != 1 {
			t.Fatalf("BladeDISC on %s compiled %d times", tr, got)
		}
	}
	// Concrete keying compiles once per distinct shape on churn.
	if got := byKey["churn/XLA"].Compiles; got != 30 {
		t.Fatalf("XLA on churn compiled %d times, want 30", got)
	}
	// Buckets collapse many shapes into few engines.
	if got := byKey["churn/TensorRT"].Compiles; got >= 30 || got < 1 {
		t.Fatalf("TensorRT on churn built %d engines", got)
	}
}

func TestReplayDeterministic(t *testing.T) {
	cfg := quick("mlp")
	a, err := EndToEnd(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := EndToEnd(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for m := range a.Speedup {
		for k, v := range a.Speedup[m] {
			if b.Speedup[m][k] != v {
				t.Fatalf("nondeterministic result for %s/%s", m, k)
			}
		}
	}
}

func TestMemoryFootprintPlanningHelps(t *testing.T) {
	cfg := quick("bert")
	cfg.Requests = 6
	rows, err := MemoryFootprint(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.PeakPlannedBytes >= r.PeakUnplannedBytes {
		t.Fatalf("liveness planning must reduce peak memory: %d vs %d",
			r.PeakPlannedBytes, r.PeakUnplannedBytes)
	}
	if r.Reuses == 0 {
		t.Fatal("pool must reuse buffers")
	}
}

func TestAdaptiveSpeculationLifecycle(t *testing.T) {
	rows, err := AdaptiveSpeculation(quick(), "gpt2")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	warm, steady := rows[0], rows[2]
	if warm.SpecHits != 0 {
		t.Fatalf("warmup phase must not speculate: %+v", warm)
	}
	if steady.SpecHits == 0 {
		t.Fatalf("steady phase must speculate: %+v", steady)
	}
	if steady.UsPerRequest > warm.UsPerRequest {
		t.Fatalf("speculation must not slow the hot shape: %.1f vs %.1f",
			steady.UsPerRequest, warm.UsPerRequest)
	}
}

func TestAllExperimentsSmoke(t *testing.T) {
	// Every driver runs end to end at tiny settings and prints something.
	if testing.Short() {
		t.Skip("slow smoke test")
	}
	cfg := quick("gpt2", "mlp")
	cfg.Requests = 12
	var buf bytes.Buffer

	if rows, err := ModelSuite(cfg); err != nil {
		t.Fatal(err)
	} else {
		PrintModelSuite(&buf, rows)
	}
	if res, err := EndToEnd(cfg); err != nil {
		t.Fatal(err)
	} else {
		res.Print(&buf)
	}
	if rows, err := Ablation(cfg); err != nil {
		t.Fatal(err)
	} else {
		PrintAblation(&buf, cfg, rows)
	}
	if pts, err := ShapeDiversity(cfg, "gpt2", []int{1, 4}); err != nil {
		t.Fatal(err)
	} else {
		PrintShapeDiversity(&buf, cfg, "gpt2", pts)
	}
	if rows, err := FusionStats(cfg); err != nil {
		t.Fatal(err)
	} else {
		PrintFusionStats(&buf, rows)
	}
	if rows, err := ConstraintAblation(cfg); err != nil {
		t.Fatal(err)
	} else {
		PrintConstraintAblation(&buf, cfg, rows)
	}
	if rows, err := Specialization(cfg); err != nil {
		t.Fatal(err)
	} else {
		PrintSpecialization(&buf, rows)
	}
	if rows, err := CompileCache(cfg, "gpt2"); err != nil {
		t.Fatal(err)
	} else {
		PrintCompileCache(&buf, cfg, "gpt2", rows)
	}
	if rows, err := MemoryFootprint(cfg); err != nil {
		t.Fatal(err)
	} else {
		PrintMemoryFootprint(&buf, cfg, rows)
	}
	if rows, err := AdaptiveSpeculation(cfg, "gpt2"); err != nil {
		t.Fatal(err)
	} else {
		PrintAdaptiveSpeculation(&buf, cfg, "gpt2", rows)
	}
	if buf.Len() < 2000 {
		t.Fatalf("experiment output suspiciously small: %d bytes", buf.Len())
	}
}

func TestScaleSweepTrends(t *testing.T) {
	cfg := quick()
	cfg.Requests = 20
	rows, err := ScaleSweep(cfg, []int{16, 128})
	if err != nil {
		t.Fatal(err)
	}
	small, big := rows[0], rows[1]
	// Eager speedup shrinks as models grow (launch-bound -> compute-bound).
	if big.Speedup["PyTorch"] >= small.Speedup["PyTorch"] {
		t.Fatalf("PyTorch gap must shrink with width: %.2f -> %.2f",
			small.Speedup["PyTorch"], big.Speedup["PyTorch"])
	}
	// TensorRT's padding waste grows with width (padded bytes dominate).
	if big.Speedup["TensorRT"] <= small.Speedup["TensorRT"] {
		t.Fatalf("TensorRT padding penalty must grow with width: %.2f -> %.2f",
			small.Speedup["TensorRT"], big.Speedup["TensorRT"])
	}
	// BladeDISC always wins on this transformer workload.
	for _, r := range rows {
		for b, v := range r.Speedup {
			if v <= 1 {
				t.Fatalf("hidden %d: %s speedup %.2f", r.Hidden, b, v)
			}
		}
	}
}

// TestDynamicBatchingAcceptance pins the E15 acceptance criteria: on the
// transformer/MLP suite at saturation, dynamic batching delivers at least
// 3x modeled throughput at equal-or-better p99, the real server pair
// produced zero output diff (bit-identity), and the batcher actually
// coalesced work (a batcher that never engages would pass the identity
// check vacuously).
func TestDynamicBatchingAcceptance(t *testing.T) {
	const window, clients = 8, 32
	rows, err := DynamicBatching(QuickConfig(), window, clients)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("suite rows = %d, want bert+mlp", len(rows))
	}
	var buf bytes.Buffer
	PrintDynamicBatching(&buf, QuickConfig(), clients, rows)
	if !strings.Contains(buf.String(), "bert") {
		t.Fatal("table missing bert")
	}
	for _, r := range rows {
		if r.Throughput < 3 {
			t.Errorf("%s: modeled throughput %.2fx below the 3x bar", r.Model, r.Throughput)
		}
		if r.BatchedP99Us > r.SoloP99Us {
			t.Errorf("%s: batched p99 %.0fus worse than solo %.0fus",
				r.Model, r.BatchedP99Us, r.SoloP99Us)
		}
		if !r.BitIdentical {
			t.Errorf("%s: batched outputs diverged from solo runs", r.Model)
		}
		if r.BatchedRuns == 0 || r.BatchedRequests < int64(window) {
			t.Errorf("%s: batching never engaged (runs=%d requests=%d)",
				r.Model, r.BatchedRuns, r.BatchedRequests)
		}
	}
}
