package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"sync"

	"godisc"
	"godisc/internal/fleet"
	"godisc/internal/models"
	"godisc/internal/tensor"
)

// Tolerance of the correctness gate: the AllClose bounds internal/exec's
// tests already hold compiled engines to against graph.Evaluate.
const (
	gateRtol = 1e-4
	gateAtol = 1e-5
)

// shape is one (batch, seq) input point of a model.
type shape struct{ batch, seq int }

// point is one distinct request of a workload: a model version at a fixed
// shape with seeded tensor values, its graph.Evaluate reference outputs
// and, for the HTTP workloads, its pre-encoded v2 request body.
type point struct {
	id      int
	model   string
	version string // fleet version; "" on the direct path
	shape   shape
	inputs  []*tensor.Tensor
	want    []*tensor.Tensor
	body    []byte
	path    string
}

// label names a point in reports.
func (p *point) label() string {
	name := p.model
	if p.version != "" {
		name += ":" + p.version
	}
	return fmt.Sprintf("%s b%d/s%d", name, p.shape.batch, p.shape.seq)
}

// servedModel is one model version a workload serves: the graph text it
// is loaded from and the zoo model that generates its inputs.
type servedModel struct {
	name, version string
	zoo           *models.Model
	text          string
}

// key is the model:version name a served model registers under.
func (s *servedModel) key() string { return s.name + ":" + s.version }

// zooModel returns a zoo model by name; the names used here are fixed in
// this package, so a miss is a programming error.
func zooModel(name string) *models.Model {
	m, err := models.ByName(name)
	if err != nil {
		panic(err)
	}
	return m
}

// perturbed builds version 2 of a zoo model: every f32 constant scaled by
// (1 + 2^-10), so its engine image, cache entry and outputs all differ
// from version 1 while the compute is identical.
func perturbed(m *models.Model) *godisc.Graph {
	g := m.Build()
	for _, n := range g.Nodes() {
		if n.Lit != nil && n.Lit.DType() == tensor.F32 {
			for i, v := range n.Lit.F32() {
				n.Lit.F32()[i] = v * (1 + 1.0/1024)
			}
		}
	}
	return g
}

// serveModels returns the served versions of names: version 1 is the zoo
// graph, version 2 (when versions == 2) its perturbed copy.
func serveModels(names []string, versions int) []*servedModel {
	var out []*servedModel
	for _, name := range names {
		m := zooModel(name)
		out = append(out, &servedModel{name: name, version: "1", zoo: m, text: godisc.WriteGraph(m.Build())})
		if versions == 2 {
			out = append(out, &servedModel{name: name, version: "2", zoo: m, text: godisc.WriteGraph(perturbed(m))})
		}
	}
	return out
}

// makePoints builds one point per (served model, shape), seeding tensor
// values from seed, and computes every reference with graph.Evaluate on
// the exact graph text the workload serves.
func makePoints(seed uint64, served []*servedModel, shapesOf func(*models.Model) []shape, http bool) ([]*point, error) {
	var pts []*point
	for si, sm := range served {
		ref, err := godisc.ParseGraph(sm.text)
		if err != nil {
			return nil, fmt.Errorf("parsing %s: %w", sm.key(), err)
		}
		for shi, sh := range shapesOf(sm.zoo) {
			rng := tensor.NewRNG(seed*1_000_003 + uint64(si)*1009 + uint64(shi) + 1)
			p := &point{id: len(pts), model: sm.name, shape: sh, inputs: sm.zoo.GenInputs(rng, sh.batch, sh.seq)}
			if http {
				p.version = sm.version
				p.path = fmt.Sprintf("/v2/models/%s/versions/%s/infer", sm.name, sm.version)
				if p.body, err = encodeRequest(p); err != nil {
					return nil, err
				}
			}
			if p.want, err = godisc.Evaluate(ref, p.inputs); err != nil {
				return nil, fmt.Errorf("reference for %s: %w", p.label(), err)
			}
			pts = append(pts, p)
		}
	}
	return pts, nil
}

// encodeRequest renders a point's inputs as a v2 JSON infer body.
func encodeRequest(p *point) ([]byte, error) {
	req := fleet.InferRequest{ID: fmt.Sprint(p.id)}
	for i, t := range p.inputs {
		it := fleet.InferTensor{Name: fmt.Sprintf("input_%d", i)}
		for _, d := range t.Shape() {
			it.Shape = append(it.Shape, int64(d))
		}
		var data any
		switch t.DType() {
		case tensor.F32:
			it.Datatype, data = fleet.DatatypeFP32, t.F32()
		case tensor.I32:
			it.Datatype, data = fleet.DatatypeINT32, t.I32()
		default:
			return nil, fmt.Errorf("%s: input dtype %v", p.label(), t.DType())
		}
		raw, err := json.Marshal(data)
		if err != nil {
			return nil, err
		}
		it.Data = raw
		req.Inputs = append(req.Inputs, it)
	}
	return json.Marshal(req)
}

// deckLen is the length of a workload's request sequence; loops that run
// past it wrap around.
const deckLen = 1 << 17

// deck is a workload's request sequence of point indices: cycles in
// which each point appears exactly its weight times, every cycle in a
// fresh seeded order. Closed loops walk it; the open loop assigns it to
// arrivals in order. Exact per-cycle frequencies keep the work mix — and
// so the figures — the same for every seed, and reshuffling each cycle
// keeps order effects (such as which engine an LRU evicts) from
// repeating; the seed changes order and tensor values.
func deck(seed uint64, pts []*point, weight func(*point) int) []int {
	var cycle []int
	for _, p := range pts {
		for i := 0; i < weight(p); i++ {
			cycle = append(cycle, p.id)
		}
	}
	r := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
	d := make([]int, 0, deckLen+len(cycle))
	for len(d) < deckLen {
		r.Shuffle(len(cycle), func(i, j int) { cycle[i], cycle[j] = cycle[j], cycle[i] })
		d = append(d, cycle...)
	}
	return d
}

// zipfWeight gives rank r (1-based) of a fixed popularity order the Zipf
// (s = 1) share scale/r, at least 1.
func zipfWeight(scale, rank int) int {
	w := int(math.Round(float64(scale) / float64(rank)))
	if w < 1 {
		w = 1
	}
	return w
}

// gate is the correctness check. A point's first response must match the
// graph.Evaluate reference within (gateRtol, gateAtol); every later
// response for the point must be bit-identical to the first, whichever
// path (direct, HTTP, batched or solo) served it.
type gate struct {
	mu    sync.Mutex
	first map[int][]byte
	errs  []string
}

func newGate() *gate { return &gate{first: map[int][]byte{}} }

// fail records a failure (the first few are kept for the report).
func (g *gate) fail(format string, args ...any) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.errs) < 8 {
		g.errs = append(g.errs, fmt.Sprintf(format, args...))
	} else if len(g.errs) == 8 {
		g.errs = append(g.errs, "...")
	}
}

// failed reports whether any check failed.
func (g *gate) failed() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.errs) > 0
}

// identical records canon as point id's canonical answer if none exists
// yet (returning true, first=true), and otherwise reports whether canon
// equals it.
func (g *gate) identical(id int, canon []byte) (same, first bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	prev, ok := g.first[id]
	if !ok {
		g.first[id] = append([]byte(nil), canon...)
		return true, true
	}
	return bytes.Equal(prev, canon), false
}

// checkTensors gates outputs returned in process.
func (g *gate) checkTensors(p *point, outs []*tensor.Tensor) bool {
	canon := tensorBits(outs)
	same, first := g.identical(p.id, canon)
	if !same {
		g.fail("%s: output differs bitwise from an earlier response", p.label())
		return false
	}
	if first {
		return g.reference(p, outs)
	}
	return true
}

// checkBody gates a v2 HTTP response body. Bit identity is checked on the
// raw "outputs" JSON (float32 values encode as their shortest round-trip
// text, so equal bytes are equal bits); the reference comparison decodes
// the first body of each point.
func (g *gate) checkBody(p *point, body []byte) bool {
	canon := outputsJSON(body)
	if canon == nil {
		g.fail("%s: response has no outputs: %.200s", p.label(), body)
		return false
	}
	same, first := g.identical(p.id, canon)
	if !same {
		g.fail("%s: HTTP output differs bitwise from an earlier response", p.label())
		return false
	}
	if !first {
		return true
	}
	outs, err := decodeOutputs(body)
	if err != nil {
		g.fail("%s: %v", p.label(), err)
		return false
	}
	return g.reference(p, outs)
}

// reference compares outputs with the point's graph.Evaluate result.
func (g *gate) reference(p *point, outs []*tensor.Tensor) bool {
	if len(outs) != len(p.want) {
		g.fail("%s: %d outputs, reference has %d", p.label(), len(outs), len(p.want))
		return false
	}
	for i := range outs {
		if err := tensor.AllClose(outs[i], p.want[i], gateRtol, gateAtol); err != nil {
			g.fail("%s: output %d outside tolerance: %v", p.label(), i, err)
			return false
		}
	}
	return true
}

// tensorBits serializes outputs bit-exactly: shape then raw element bits.
func tensorBits(outs []*tensor.Tensor) []byte {
	var b []byte
	for _, t := range outs {
		b = fmt.Appendf(b, "%v%v|", t.DType(), t.Shape())
		for i := 0; i < t.Numel(); i++ {
			var u uint32
			switch t.DType() {
			case tensor.F32:
				u = math.Float32bits(t.F32()[i])
			case tensor.I32:
				u = uint32(t.I32()[i])
			default:
				if t.Bools()[i] {
					u = 1
				}
			}
			b = append(b, byte(u), byte(u>>8), byte(u>>16), byte(u>>24))
		}
	}
	return b
}

// outputsJSON slices the "outputs" array out of a v2 response body; the
// fleet encodes its fields in struct order, so the array ends where the
// optional "parameters" object (cache/batching flags, which legitimately
// differ between responses) begins.
func outputsJSON(body []byte) []byte {
	i := bytes.Index(body, []byte(`"outputs":`))
	if i < 0 {
		return nil
	}
	end := bytes.LastIndex(body, []byte(`,"parameters":`))
	if end < i {
		end = bytes.LastIndexByte(body, '}')
	}
	if end < i {
		return nil
	}
	return body[i:end]
}

// decodeOutputs parses the output tensors of a v2 response body.
func decodeOutputs(body []byte) ([]*tensor.Tensor, error) {
	var resp fleet.InferResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, fmt.Errorf("bad response body: %v", err)
	}
	var outs []*tensor.Tensor
	for _, o := range resp.Outputs {
		shape := make([]int, len(o.Shape))
		for i, d := range o.Shape {
			shape[i] = int(d)
		}
		switch o.Datatype {
		case fleet.DatatypeFP32:
			var data []float32
			if err := json.Unmarshal(o.Data, &data); err != nil {
				return nil, fmt.Errorf("output %s: %v", o.Name, err)
			}
			outs = append(outs, tensor.FromF32(data, shape...))
		case fleet.DatatypeINT32:
			var data []int32
			if err := json.Unmarshal(o.Data, &data); err != nil {
				return nil, fmt.Errorf("output %s: %v", o.Name, err)
			}
			outs = append(outs, tensor.FromI32(data, shape...))
		default:
			return nil, fmt.Errorf("output %s: datatype %s", o.Name, o.Datatype)
		}
	}
	return outs, nil
}
