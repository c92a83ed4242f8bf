// Command discrun compiles a model from the zoo and executes it end to end
// at the requested concrete shapes, verifying the compiled outputs against
// the reference interpreter and printing the simulated device profile.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"godisc/internal/baselines"
	"godisc/internal/device"
	"godisc/internal/exec"
	"godisc/internal/graph"
	"godisc/internal/models"
	"godisc/internal/obs"
	"godisc/internal/symshape"
	"godisc/internal/tensor"
)

func main() {
	var (
		model   = flag.String("model", "bert", "model to run")
		in      = flag.String("in", "", "run a serialized .disc graph instead of a zoo model")
		binds   = flag.String("bind", "", "with -in: dynamic dim values, e.g. \"d0=4,d1=12\"")
		dev     = flag.String("device", "A10", "device model: A10 or T4")
		batch   = flag.Int("batch", 4, "batch size")
		seqs    = flag.String("seqs", "8,33,128", "comma-separated sequence lengths to run")
		verify  = flag.Bool("verify", true, "check outputs against the reference interpreter")
		workers = flag.Int("workers", exec.DefaultWorkers(),
			"engine execution goroutines per run (1 = sequential; default GODISC_WORKERS or GOMAXPROCS)")
		traceOut = flag.String("trace-out", "",
			"write per-run execution traces as a Chrome trace_event file (open in chrome://tracing)")
	)
	flag.Parse()
	var err error
	if *in != "" {
		err = runArtifact(*in, *binds, *dev, *workers, *traceOut)
	} else {
		err = run(*model, *dev, *batch, *seqs, *verify, *workers, *traceOut)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "discrun:", err)
		os.Exit(1)
	}
}

// runArtifact loads a serialized graph, binds the user-supplied dynamic
// dim values, synthesizes random inputs of the resulting shapes, and runs
// the compiled executable with verification against the reference.
func runArtifact(path, binds, devName string, workers int, traceOut string) error {
	src, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	g, err := graph.ParseText(string(src))
	if err != nil {
		return err
	}
	d, err := device.ByName(devName)
	if err != nil {
		return err
	}
	// Parse "name=value" bindings against the serialized dim names.
	bind := symshape.NewBinding(g.Ctx)
	nameToDim := map[string]symshape.DimID{}
	for _, p := range g.Params {
		for _, dim := range p.Shape {
			if !g.Ctx.IsStatic(dim) {
				nameToDim[fmt.Sprintf("d%d", g.Ctx.Root(dim))] = dim
			}
		}
	}
	if binds != "" {
		for _, kv := range strings.Split(binds, ",") {
			parts := strings.SplitN(strings.TrimSpace(kv), "=", 2)
			if len(parts) != 2 {
				return fmt.Errorf("bad binding %q", kv)
			}
			dim, ok := nameToDim[parts[0]]
			if !ok {
				return fmt.Errorf("unknown dim %q (have %v)", parts[0], keys(nameToDim))
			}
			v, err := strconv.Atoi(parts[1])
			if err != nil {
				return err
			}
			if err := bind.Bind(symshape.Shape{dim}, []int{v}); err != nil {
				return err
			}
		}
	}
	// Default unbound dynamic dims to their range lower bound + 3.
	for _, dim := range nameToDim {
		if _, err := bind.Value(dim); err == nil {
			continue
		}
		lo, _ := g.Ctx.Range(dim)
		v := int(lo) + 3
		if div := g.Ctx.Divisor(dim); div > 1 {
			v = int(div) * ((v + int(div) - 1) / int(div))
		}
		if err := bind.Bind(symshape.Shape{dim}, []int{v}); err != nil {
			return err
		}
	}
	// Synthesize inputs.
	r := tensor.NewRNG(1)
	var ins []*tensor.Tensor
	for _, p := range g.Params {
		shape, err := bind.Eval(p.Shape)
		if err != nil {
			return fmt.Errorf("parameter %q: %w (bind its dims with -bind)", p.Name, err)
		}
		switch p.DType {
		case tensor.I32:
			ins = append(ins, tensor.RandIndices(r, 2, shape...))
		case tensor.Bool:
			ins = append(ins, tensor.New(tensor.Bool, shape...))
		default:
			ins = append(ins, tensor.RandN(r, 0.5, shape...))
		}
	}
	ref, err := graph.ParseText(string(src))
	if err != nil {
		return err
	}
	params := baselines.BladeDISCParams()
	params.Workers = workers
	tracer := newTracer(traceOut)
	params.Hook = hookOrNil(tracer)
	disc, err := baselines.NewCompiled(g, d, params)
	if err != nil {
		return err
	}
	outs, prof, err := disc.Invoke(ins)
	if err != nil {
		return err
	}
	if err := writeTrace(tracer, traceOut); err != nil {
		return err
	}
	want, err := graph.Evaluate(ref, ins)
	if err != nil {
		return err
	}
	for i := range want {
		if err := tensor.AllClose(outs[i], want[i], 2e-4, 1e-4); err != nil {
			return fmt.Errorf("output %d: %w", i, err)
		}
	}
	fmt.Printf("artifact %s on %s: %d output(s), %d launches, %.1fµs simulated (verified)\n",
		path, devName, len(outs), prof.Launches, (prof.SimulatedNs-prof.CompileNs)/1e3)
	for i, o := range outs {
		fmt.Printf("  output %d: %v\n", i, o.Shape())
	}
	return nil
}

func keys(m map[string]symshape.DimID) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func run(model, devName string, batch int, seqs string, verify bool, workers int, traceOut string) error {
	m, err := models.ByName(model)
	if err != nil {
		return err
	}
	d, err := device.ByName(devName)
	if err != nil {
		return err
	}
	params := baselines.BladeDISCParams()
	params.Workers = workers
	tracer := newTracer(traceOut)
	params.Hook = hookOrNil(tracer)
	disc, err := baselines.NewCompiled(m.Build(), d, params)
	if err != nil {
		return err
	}
	ref := m.Build()
	fmt.Printf("model %s on %s, batch %d — one compilation, every shape below reuses it\n\n",
		model, devName, batch)
	r := tensor.NewRNG(1)
	for _, f := range strings.Split(seqs, ",") {
		seq, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return fmt.Errorf("bad seq %q: %w", f, err)
		}
		ins := m.GenInputs(r, batch, seq)
		outs, prof, err := disc.Invoke(ins)
		if err != nil {
			return fmt.Errorf("seq %d: %w", seq, err)
		}
		status := "unverified"
		if verify {
			want, err := graph.Evaluate(ref, ins)
			if err != nil {
				return err
			}
			status = "verified"
			for i := range want {
				if err := tensor.AllClose(outs[i], want[i], 2e-4, 1e-4); err != nil {
					return fmt.Errorf("seq %d output %d: %w", seq, i, err)
				}
			}
		}
		fmt.Printf("seq %4d: out %v  launches=%d  sim=%.1fµs (%s)\n",
			seq, outs[0].Shape(), prof.Launches, (prof.SimulatedNs-prof.CompileNs)/1e3, status)
	}
	hits, misses, entries := disc.CacheStats()
	fmt.Printf("\ncompilation cache: %d hit(s), %d miss(es), %d entry(ies) — symbolic signature keying\n",
		hits, misses, entries)
	return writeTrace(tracer, traceOut)
}

// newTracer returns a tracer when tracing is requested, else nil — and a
// nil *obs.Tracer never reaches an interface field, so the engine's
// disabled-path branch stays a plain pointer test.
func newTracer(traceOut string) *obs.Tracer {
	if traceOut == "" {
		return nil
	}
	return obs.NewTracer(0)
}

// hookOrNil converts the tracer to the hook interface without boxing a
// typed nil.
func hookOrNil(t *obs.Tracer) obs.Hook {
	if t == nil {
		return nil
	}
	return t
}

// writeTrace dumps the recorded spans as a Chrome trace_event file.
func writeTrace(t *obs.Tracer, path string) error {
	if t == nil || path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace-out: %w", err)
	}
	if err := t.WriteChromeTrace(f); err != nil {
		f.Close()
		return fmt.Errorf("trace-out: %w", err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	total, dropped := t.Recorded()
	fmt.Printf("traces: %d recorded (%d evicted) → %s\n", total, dropped, path)
	return nil
}
