// Engine image serialization: an Executable flattened to pure data so the
// persistent engine cache (internal/enginecache) can write compiled engines
// to disk and a fresh process can reload them without re-running the
// opt/fusion/codegen pipeline. The image carries the KIR kernel ASTs, the
// specialization variant table (guards as codegen.GuardSpec data), the
// compiled shape program, the task DAG with its slot plan, constants, the
// footprint plan, and the precomputed capacity bound. Decoding rebuilds the
// runnable closures with kir.Finalize — cheap closure compilation, no
// lowering — and is bit-identical to the original engine by construction:
// the same ASTs compile to the same programs, the same guard specs rebuild
// the same dispatch predicates, and the DAG/slot plan is copied verbatim.
//
// The decoder is hostile-input-proof: any panic while decoding (corrupt
// gob, malformed AST) is recovered into an error, and structural indices
// (slots, task ids, shape-program references) are bounds-checked before the
// engine is handed to callers. A torn or tampered cache entry therefore
// degrades to a decode error — never a crash, never a stale engine.
package exec

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"godisc/internal/codegen"
	"godisc/internal/device"
	"godisc/internal/fusion"
	"godisc/internal/graph"
	"godisc/internal/kir"
	"godisc/internal/tensor"
)

// ImageVersion is the engine image format version. Bump it whenever the
// image layout or the runtime semantics of any serialized field change; the
// cache layer folds it into the compiler fingerprint, so stale images are
// quarantined instead of misinterpreted.
const ImageVersion = 1

func init() {
	// kir ASTs hold interface-typed nodes; gob needs the concrete types.
	gob.Register(kir.IConst(0))
	gob.Register(kir.IDim(""))
	gob.Register(kir.IVar(""))
	gob.Register(kir.IBin{})
	gob.Register(kir.ILoad{})
	gob.Register(kir.FConst(0))
	gob.Register(kir.FLoad{})
	gob.Register(kir.FLocal(""))
	gob.Register(kir.FUn{})
	gob.Register(kir.FBin{})
	gob.Register(kir.FCmp{})
	gob.Register(kir.FSel{})
	gob.Register(kir.FCastInt{})
	gob.Register(kir.SLoop{})
	gob.Register(kir.SSet{})
	gob.Register(kir.SSetInt{})
	gob.Register(kir.SStore{})
	gob.Register(kir.SStoreInt{})
}

// engineImage is the serialized form of an Executable. Everything is plain
// data with exported fields (gob), mirroring the runtime structures 1:1.
type engineImage struct {
	Version   int
	GraphName string
	NumParams int
	OutDTypes []tensor.DType
	OutRefs   [][]dimRef

	// Options that change runtime behavior travel with the engine so a
	// reload replays the original compile exactly; process-local options
	// (workers, hooks, governor) come from the loading process.
	HostDispatchNs  float64
	DisableLiveness bool

	Prog progImage

	NSlots      int
	Refs0       []int32
	Params      []paramImage
	Consts      []constImage
	OutputSlots []int
	Tasks       []taskImage

	Footprint *fpImage
	// MaxFP/MaxFPOK cache MaxFootprintBytes, which needs the symbolic
	// context that does not survive serialization.
	MaxFP   int64
	MaxFPOK bool
}

type progImage struct {
	Slots int
	Fills []fillCheck
	Steps []shapeStep
}

type paramImage struct{ Slot, Param int }

type constImage struct {
	Slot int
	Buf  []float32
}

type taskImage struct {
	ID       int
	NDeps    int
	Outs     []int
	InSlots  []int
	OutSlots []int
	Reads    []int
	Unit     unitImage
}

type unitImage struct {
	IsLib bool
	// LibKind/TransB reconstruct the library dispatch (matmul/conv) and
	// span labels; unused for kernel units.
	LibKind graph.OpKind
	TransB  bool

	NumInputs  int
	NumOutputs int

	DomainRefs    []dimRef
	KernelDimRefs []dimRef
	InShapeRefs   [][]dimRef
	OutShapeRefs  [][]dimRef

	Kernel *kernelImage
}

type kernelImage struct {
	Name          string
	ScratchRows   int
	FlopsPerPoint int
	Passes        int
	ParallelOuter bool
	GrainPoints   int
	Variants      []variantImage
	Partial       *partialImage
}

type variantImage struct {
	Name    string
	Spec    codegen.GuardSpec
	AST     *kir.Kernel
	MemEff  float64
	CompEff float64
}

type partialImage struct {
	Partial *kir.Kernel
	Combine *kir.Kernel
}

// EncodeImage serializes the compiled engine. The result is deterministic
// for a given engine and independent of process-local options.
func (e *Executable) EncodeImage() ([]byte, error) {
	img := engineImage{
		Version:         ImageVersion,
		GraphName:       e.Graph.Name,
		NumParams:       len(e.Graph.Params),
		OutRefs:         e.outRefs,
		HostDispatchNs:  e.opts.HostDispatchNs,
		DisableLiveness: e.opts.DisableLivenessPlanning,
		Prog:            progImage{Slots: e.prog.slots, Fills: e.prog.fills, Steps: e.prog.steps},
		NSlots:          e.nSlots,
		Refs0:           e.refs0,
		OutputSlots:     e.outputSlots,
	}
	for _, o := range e.Graph.Outputs {
		img.OutDTypes = append(img.OutDTypes, o.DType)
	}
	for _, p := range e.paramRefs {
		img.Params = append(img.Params, paramImage{Slot: p.slot, Param: p.param})
	}
	for _, c := range e.constRefs {
		img.Consts = append(img.Consts, constImage{Slot: c.slot, Buf: c.buf})
	}
	for _, t := range e.tasks {
		ti := taskImage{
			ID: t.id, NDeps: t.nDeps, Outs: t.outs,
			InSlots: t.inSlots, OutSlots: t.outSlots, Reads: t.reads,
		}
		u := t.u
		ti.Unit = unitImage{
			IsLib:         u.isLib,
			NumInputs:     len(u.group.Inputs),
			NumOutputs:    len(u.group.Outputs),
			DomainRefs:    u.domainRefs,
			KernelDimRefs: u.kernelDimRefs,
			InShapeRefs:   u.inShapeRefs,
			OutShapeRefs:  u.outShapeRefs,
		}
		if u.isLib {
			n := u.group.Nodes[0]
			ti.Unit.LibKind = n.Kind
			ti.Unit.TransB = n.TransB
		} else {
			k := u.kernel
			ki := &kernelImage{
				Name:          k.Name,
				ScratchRows:   k.ScratchRows,
				FlopsPerPoint: k.FlopsPerPoint,
				Passes:        k.Passes,
				ParallelOuter: k.ParallelOuter,
				GrainPoints:   k.GrainPoints,
			}
			for _, v := range k.Variants {
				ki.Variants = append(ki.Variants, variantImage{
					Name: v.Name, Spec: v.Spec, AST: v.Code.AST(),
					MemEff: v.MemEfficiency, CompEff: v.ComputeEfficiency,
				})
			}
			if k.Partial != nil {
				ki.Partial = &partialImage{
					Partial: k.Partial.Partial.AST(),
					Combine: k.Partial.Combine.AST(),
				}
			}
			ti.Unit.Kernel = ki
		}
		img.Tasks = append(img.Tasks, ti)
	}
	if fp := e.fp; fp != nil {
		img.Footprint = &fpImage{SlotRefs: fp.slotRefs, Pooled: fp.pooled, Live: fp.live}
	}
	img.MaxFP, img.MaxFPOK = e.MaxFootprintBytes()

	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&img); err != nil {
		return nil, fmt.Errorf("exec: encoding engine image for %s: %w", e.Graph.Name, err)
	}
	return buf.Bytes(), nil
}

type fpImage struct {
	SlotRefs [][]dimRef
	Pooled   []int
	Live     [][]int32
}

// DecodeImage rebuilds a runnable Executable from a serialized engine
// image. dev supplies the loading process's device model (the cache layer
// folds the device name into the compiler fingerprint, so it always matches
// the encoding device); opts supplies process-local execution options —
// workers, pools, hooks, metrics, governor, faults. Compile-time options
// that affect runtime behavior (host dispatch cost, liveness planning) come
// from the image itself.
//
// DecodeImage never panics on malformed input: decoding errors — including
// recovered panics from hostile bytes — come back as errors.
func DecodeImage(data []byte, dev *device.Model, opts Options) (e *Executable, err error) {
	defer func() {
		if r := recover(); r != nil {
			e, err = nil, fmt.Errorf("exec: decoding engine image: panic: %v", r)
		}
	}()
	var img engineImage
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&img); err != nil {
		return nil, fmt.Errorf("exec: decoding engine image: %w", err)
	}
	if img.Version != ImageVersion {
		return nil, fmt.Errorf("exec: engine image version %d, want %d", img.Version, ImageVersion)
	}
	if err := validateImage(&img); err != nil {
		return nil, err
	}

	opts.HostDispatchNs = img.HostDispatchNs
	opts.DisableLivenessPlanning = img.DisableLiveness

	// Stand-in graph: RunContext needs the parameter count, output dtypes
	// and the name; the symbolic context is compile-time-only (its one
	// runtime consumer, MaxFootprintBytes, is served from the cached bound
	// below).
	g := &graph.Graph{Name: img.GraphName}
	for i := 0; i < img.NumParams; i++ {
		g.Params = append(g.Params, &graph.Node{Kind: graph.OpParameter, ParamIndex: i})
	}
	for _, dt := range img.OutDTypes {
		g.Outputs = append(g.Outputs, &graph.Node{DType: dt})
	}

	e = newExecutable(g, dev, opts)
	e.prog = &shapeProgram{slots: img.Prog.Slots, fills: img.Prog.Fills, steps: img.Prog.Steps}
	e.outRefs = img.OutRefs
	e.nSlots = img.NSlots
	e.refs0 = img.Refs0
	e.outputSlots = img.OutputSlots
	e.maxFP, e.maxFPOK, e.maxFPSet = img.MaxFP, img.MaxFPOK, true
	for _, p := range img.Params {
		e.paramRefs = append(e.paramRefs, paramRef{slot: p.Slot, param: p.Param})
	}
	for _, c := range img.Consts {
		e.constRefs = append(e.constRefs, constRef{slot: c.Slot, buf: c.Buf})
	}
	if img.Footprint != nil {
		e.fp = &footprintPlan{
			slotRefs: img.Footprint.SlotRefs,
			pooled:   img.Footprint.Pooled,
			live:     img.Footprint.Live,
		}
	}
	for i := range img.Tasks {
		ti := &img.Tasks[i]
		u, err := decodeUnit(&ti.Unit)
		if err != nil {
			return nil, err
		}
		e.units = append(e.units, u)
		e.tasks = append(e.tasks, &task{
			id: ti.ID, u: u, nDeps: ti.NDeps, outs: ti.Outs,
			inSlots: ti.InSlots, outSlots: ti.OutSlots, reads: ti.Reads,
		})
	}
	return e, nil
}

// decodeUnit rebuilds one schedulable unit: a synthetic fusion group sized
// like the original (the executor reads only input/output arity and, for
// library calls, the op node) plus the re-finalized kernel.
func decodeUnit(ui *unitImage) (*unit, error) {
	grp := &fusion.Group{}
	for i := 0; i < ui.NumInputs; i++ {
		grp.Inputs = append(grp.Inputs, &graph.Node{})
	}
	for i := 0; i < ui.NumOutputs; i++ {
		grp.Outputs = append(grp.Outputs, &graph.Node{})
	}
	u := &unit{
		group:         grp,
		isLib:         ui.IsLib,
		domainRefs:    ui.DomainRefs,
		kernelDimRefs: ui.KernelDimRefs,
		inShapeRefs:   ui.InShapeRefs,
		outShapeRefs:  ui.OutShapeRefs,
	}
	if ui.IsLib {
		grp.Kind = fusion.KLibrary
		grp.Nodes = []*graph.Node{{Kind: ui.LibKind, TransB: ui.TransB}}
		return u, nil
	}
	ki := ui.Kernel
	if ki == nil {
		return nil, fmt.Errorf("exec: engine image: kernel unit without kernel")
	}
	k := &codegen.Kernel{
		Name:          ki.Name,
		Group:         grp,
		ScratchRows:   ki.ScratchRows,
		FlopsPerPoint: ki.FlopsPerPoint,
		Passes:        ki.Passes,
		ParallelOuter: ki.ParallelOuter,
		GrainPoints:   ki.GrainPoints,
	}
	if len(ki.Variants) == 0 {
		return nil, fmt.Errorf("exec: engine image: kernel %s has no variants", ki.Name)
	}
	for _, vi := range ki.Variants {
		if vi.AST == nil {
			return nil, fmt.Errorf("exec: engine image: kernel %s variant %s has no program", ki.Name, vi.Name)
		}
		cp, err := vi.AST.Finalize()
		if err != nil {
			return nil, fmt.Errorf("exec: engine image: %w", err)
		}
		k.Variants = append(k.Variants, &codegen.Variant{
			Name: vi.Name, Guard: vi.Spec.Func(), Spec: vi.Spec, Code: cp,
			MemEfficiency: vi.MemEff, ComputeEfficiency: vi.CompEff,
		})
	}
	if last := k.Variants[len(k.Variants)-1]; last.Guard != nil {
		return nil, fmt.Errorf("exec: engine image: kernel %s has no fallback variant", ki.Name)
	}
	if ki.Partial != nil {
		if ki.Partial.Partial == nil || ki.Partial.Combine == nil {
			return nil, fmt.Errorf("exec: engine image: kernel %s has incomplete partial reduce", ki.Name)
		}
		pc, err := ki.Partial.Partial.Finalize()
		if err != nil {
			return nil, fmt.Errorf("exec: engine image: %w", err)
		}
		cc, err := ki.Partial.Combine.Finalize()
		if err != nil {
			return nil, fmt.Errorf("exec: engine image: %w", err)
		}
		k.Partial = &codegen.PartialReduce{Partial: pc, Combine: cc}
	}
	u.kernel = k
	return u, nil
}

// validateImage bounds-checks every structural index so a tampered image
// fails decode instead of crashing a later run.
func validateImage(img *engineImage) error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("exec: engine image: "+format, args...)
	}
	if img.NumParams < 0 || img.NSlots < 0 || img.Prog.Slots < 0 {
		return bad("negative size")
	}
	checkRef := func(r dimRef) error {
		if r.Slot >= img.Prog.Slots {
			return bad("dim ref slot %d out of range [0,%d)", r.Slot, img.Prog.Slots)
		}
		return nil
	}
	checkRefs := func(refs []dimRef) error {
		for _, r := range refs {
			if err := checkRef(r); err != nil {
				return err
			}
		}
		return nil
	}
	checkSlot := func(s int) error {
		if s < 0 || s >= img.NSlots {
			return bad("slot %d out of range [0,%d)", s, img.NSlots)
		}
		return nil
	}
	if len(img.Refs0) != img.NSlots {
		return bad("%d refcounts for %d slots", len(img.Refs0), img.NSlots)
	}
	if len(img.OutputSlots) != len(img.OutDTypes) || len(img.OutRefs) != len(img.OutDTypes) {
		return bad("output slots/refs/dtypes disagree")
	}
	for _, refs := range img.OutRefs {
		if err := checkRefs(refs); err != nil {
			return err
		}
	}
	for _, s := range img.OutputSlots {
		if err := checkSlot(s); err != nil {
			return err
		}
	}
	for _, p := range img.Params {
		if err := checkSlot(p.Slot); err != nil {
			return err
		}
		if p.Param < 0 || p.Param >= img.NumParams {
			return bad("param index %d out of range [0,%d)", p.Param, img.NumParams)
		}
	}
	for _, c := range img.Consts {
		if err := checkSlot(c.Slot); err != nil {
			return err
		}
	}
	for _, f := range img.Prog.Fills {
		if f.Param < 0 || f.Param >= img.NumParams {
			return bad("fill param %d out of range [0,%d)", f.Param, img.NumParams)
		}
		if f.Slot >= img.Prog.Slots {
			return bad("fill slot %d out of range [0,%d)", f.Slot, img.Prog.Slots)
		}
	}
	for _, s := range img.Prog.Steps {
		if s.Slot < 0 || s.Slot >= img.Prog.Slots {
			return bad("step slot %d out of range [0,%d)", s.Slot, img.Prog.Slots)
		}
		if (s.Kind == stepQuot || s.Kind == stepAffine) && len(s.Args) == 0 {
			return bad("step with missing operand")
		}
		if s.Kind == stepQuot && s.A == 0 {
			return bad("quotient step with zero denominator")
		}
		if err := checkRefs(s.Args); err != nil {
			return err
		}
	}
	if img.Footprint != nil {
		fp := img.Footprint
		if len(fp.SlotRefs) != img.NSlots {
			return bad("%d footprint slot refs for %d slots", len(fp.SlotRefs), img.NSlots)
		}
		for _, refs := range fp.SlotRefs {
			if err := checkRefs(refs); err != nil {
				return err
			}
		}
		for _, s := range fp.Pooled {
			if err := checkSlot(s); err != nil {
				return err
			}
		}
		if len(fp.Live) != len(img.Tasks) {
			return bad("%d footprint live sets for %d tasks", len(fp.Live), len(img.Tasks))
		}
		for _, set := range fp.Live {
			for _, s := range set {
				if err := checkSlot(int(s)); err != nil {
					return err
				}
			}
		}
	}
	for i := range img.Tasks {
		ti := &img.Tasks[i]
		if ti.ID != i {
			return bad("task %d carries id %d", i, ti.ID)
		}
		for _, o := range ti.Outs {
			if o < 0 || o >= len(img.Tasks) {
				return bad("task %d edge to %d out of range [0,%d)", i, o, len(img.Tasks))
			}
		}
		for _, s := range ti.InSlots {
			if err := checkSlot(s); err != nil {
				return err
			}
		}
		for _, s := range ti.OutSlots {
			if err := checkSlot(s); err != nil {
				return err
			}
		}
		for _, s := range ti.Reads {
			if err := checkSlot(s); err != nil {
				return err
			}
		}
		u := &ti.Unit
		if len(u.InShapeRefs) != u.NumInputs || len(ti.InSlots) != u.NumInputs {
			return bad("task %d input arity disagrees", i)
		}
		if len(u.OutShapeRefs) != u.NumOutputs || len(ti.OutSlots) != u.NumOutputs {
			return bad("task %d output arity disagrees", i)
		}
		if u.IsLib && u.NumInputs < 2 {
			return bad("task %d library call with %d inputs", i, u.NumInputs)
		}
		if u.IsLib && u.NumOutputs < 1 {
			return bad("task %d library call with no output", i)
		}
		for _, refs := range [][]dimRef{u.DomainRefs, u.KernelDimRefs} {
			if err := checkRefs(refs); err != nil {
				return err
			}
		}
		for _, rr := range u.InShapeRefs {
			if err := checkRefs(rr); err != nil {
				return err
			}
		}
		for _, rr := range u.OutShapeRefs {
			if err := checkRefs(rr); err != nil {
				return err
			}
		}
	}
	return nil
}
