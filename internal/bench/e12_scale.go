package bench

import (
	"fmt"
	"io"

	"godisc/internal/baselines"
	"godisc/internal/graph"
	"godisc/internal/symshape"
	"godisc/internal/tensor"
	"godisc/internal/workload"
)

// ScaleRow is one model-width point of the scale sweep (E12).
type ScaleRow struct {
	Hidden int
	// Speedup[baseline] of BladeDISC at this width.
	Speedup map[string]float64
	// DiscUsPerReq at this width.
	DiscUsPerReq float64
}

// scaleBaselines are the comparators of the sweep.
var scaleBaselines = []string{"PyTorch", "XLA", "TensorRT"}

// buildScaledLayer returns a builder for one transformer encoder layer of
// the given hidden width (heads scale with it).
func buildScaledLayer(hidden int) func() *graph.Graph {
	return func() *graph.Graph {
		g := graph.New(fmt.Sprintf("layer%d", hidden))
		r := tensor.NewRNG(uint64(900 + hidden))
		b := g.Ctx.NewDim("B")
		s := g.Ctx.NewDim("S")
		g.Ctx.DeclareRange(b, 1, 64)
		g.Ctx.DeclareRange(s, 1, 128)
		h := g.Ctx.StaticDim(int64(hidden))
		x := g.Parameter("x", tensor.F32, symshape.Shape{b, s, h})
		nh := hidden / 16
		if nh < 1 {
			nh = 1
		}
		out := scaledEncoderLayer(g, r, x, hidden, nh)
		g.SetOutputs(out)
		return g
	}
}

// scaledEncoderLayer mirrors the zoo's encoder layer without importing the
// models package (avoiding an import cycle is not the issue — the zoo's
// widths are fixed; the sweep needs parametric ones).
func scaledEncoderLayer(g *graph.Graph, r *tensor.RNG, x *graph.Node, h, nh int) *graph.Node {
	lin := func(in *graph.Node, ci, co int) *graph.Node {
		w := g.Constant(tensor.RandN(r, 0.08, ci, co))
		bias := g.Constant(tensor.RandN(r, 0.02, co))
		return g.Add(g.MatMul(in, w), bias)
	}
	norm := func(in *graph.Node) *graph.Node {
		gamma := g.Constant(tensor.RandUniform(r, 0.9, 1.1, h))
		beta := g.Constant(tensor.RandN(r, 0.02, h))
		return g.LayerNorm(in, gamma, beta, 1e-5)
	}
	heads := func(in *graph.Node) *graph.Node {
		split := g.SplitDim(in, 2, int64(h/nh))
		return g.Transpose(split, 0, 2, 1, 3)
	}
	q := heads(lin(x, h, h))
	k := heads(lin(x, h, h))
	v := heads(lin(x, h, h))
	scale := g.ConstScalar(float32(1.0 / float64(h/nh)))
	probs := g.Softmax(g.Mul(g.MatMul(q, g.Transpose(k, 0, 1, 3, 2)), scale))
	ctx := g.MergeDims(g.Transpose(g.MatMul(probs, v), 0, 2, 1, 3), 2, 4)
	att := norm(g.Add(x, lin(ctx, h, h)))
	ffn := lin(g.Gelu(lin(att, h, 4*h)), 4*h, h)
	return norm(g.Add(att, ffn))
}

// ScaleSweep measures BladeDISC's speedup across model widths (experiment
// E12): small widths are launch-bound (fusion's launch elimination
// dominates), large widths are memory/compute-bound (gaps narrow toward
// the kernel-quality ratios).
func ScaleSweep(cfg Config, hiddens []int) ([]ScaleRow, error) {
	dev, err := cfg.device()
	if err != nil {
		return nil, err
	}
	var rows []ScaleRow
	for _, h := range hiddens {
		build := buildScaledLayer(h)
		row := ScaleRow{Hidden: h, Speedup: map[string]float64{}}
		suite := map[string]baselines.Strategy{}
		disc, err := baselines.NewCompiled(build(), dev, baselines.BladeDISCParams())
		if err != nil {
			return nil, err
		}
		suite["BladeDISC"] = disc
		pt, err := baselines.NewInterpreter(build(), dev, baselines.PyTorchParams())
		if err != nil {
			return nil, err
		}
		suite["PyTorch"] = pt
		xla, err := baselines.NewCompiled(build(), dev, baselines.XLAParams())
		if err != nil {
			return nil, err
		}
		suite["XLA"] = xla
		trt, err := baselines.NewCompiled(build(), dev, baselines.TensorRTParams())
		if err != nil {
			return nil, err
		}
		suite["TensorRT"] = trt

		tr := workload.Zipf(workload.Spec{
			Requests: cfg.Requests, MaxBatch: cfg.MaxBatch, MaxSeq: 128, Seed: cfg.Seed,
		})
		perReq := map[string]float64{}
		for name, s := range suite {
			var total float64
			// Warm pass then measured pass.
			for pass := 0; pass < 2; pass++ {
				total = 0
				for _, p := range tr.Points {
					prof, err := s.Simulate([][]int{{p.Batch, p.Seq, h}})
					if err != nil {
						return nil, err
					}
					total += prof.SimulatedNs - prof.CompileNs
				}
			}
			perReq[name] = total / float64(len(tr.Points))
		}
		row.DiscUsPerReq = perReq["BladeDISC"] / 1e3
		for _, b := range scaleBaselines {
			row.Speedup[b] = perReq[b] / perReq["BladeDISC"]
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// PrintScaleSweep renders the E12 figure.
func PrintScaleSweep(w io.Writer, cfg Config, rows []ScaleRow) {
	fmt.Fprintf(w, "Model-width scale sweep on %s (E12): one encoder layer, Zipf trace\n\n", cfg.Device)
	fmt.Fprintf(w, "%8s %14s", "hidden", "disc µs/req")
	for _, b := range scaleBaselines {
		fmt.Fprintf(w, "%12s", b)
	}
	fmt.Fprintln(w)
	printRule(w, len(scaleBaselines)+2, 10)
	for _, r := range rows {
		fmt.Fprintf(w, "%8d %14.1f", r.Hidden, r.DiscUsPerReq)
		for _, b := range scaleBaselines {
			fmt.Fprintf(w, "%11.2fx", r.Speedup[b])
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "\n(small widths are launch-bound — fusion's launch elimination dominates;\n")
	fmt.Fprintf(w, " large widths become bandwidth-bound and gaps approach kernel-quality ratios)\n")
}
