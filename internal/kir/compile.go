package kir

import (
	"fmt"
	"sync"

	"godisc/internal/tensor"
)

// FuncTable maps scalar function names used by FUn/FBin to implementations.
// Sharing the tensor package's functions keeps the bytecode VM and the
// reference interpreter bit-identical.
var (
	unaryFuncs = map[string]tensor.UnaryFunc{
		"neg": tensor.FnNeg, "abs": tensor.FnAbs, "exp": tensor.FnExp,
		"log": tensor.FnLog, "sqrt": tensor.FnSqrt, "rsqrt": tensor.FnRsqrt,
		"tanh": tensor.FnTanh, "erf": tensor.FnErf, "sigmoid": tensor.FnSigmoid,
		"relu": tensor.FnRelu, "gelu": tensor.FnGelu, "id": func(x float32) float32 { return x },
	}
	binaryFuncs = map[string]tensor.BinaryFunc{
		"add": tensor.FnAdd, "sub": tensor.FnSub, "mul": tensor.FnMul,
		"div": tensor.FnDiv, "pow": tensor.FnPow, "max": tensor.FnMax,
		"min": tensor.FnMin,
	}
)

// Frame is the runtime activation record of a compiled kernel: ints/floats
// are the bytecode program's flat register file.
type Frame struct {
	ints   []int
	floats []float32
	bufs   [][]float32
	dims   []int
}

// Compiled is a kernel after compilation ("machine code"). It is immutable
// and safe for concurrent Run calls (frames are pooled per kernel; every
// register is written before it is read, so frames need no zeroing between
// runs).
type Compiled struct {
	kernel  *Kernel
	nInts   int
	nFloats int
	frames  sync.Pool

	// prog is the flat bytecode program (vm.go executes it).
	prog *program

	// extent evaluates the outer loop extent from dims alone — no Frame is
	// constructed, keeping OuterExtent allocation-free on the per-request
	// partitioning path. Set iff the kernel body is a single top-level loop
	// with a dims-only extent.
	extent func(dims []int) int
}

// Finalize validates and compiles the kernel to bytecode. This is the
// compile-time half of the combined codegen: after Finalize, Run only binds
// runtime dims and buffers.
func (k *Kernel) Finalize() (*Compiled, error) {
	dimSlot := map[string]int{}
	for i, d := range k.DimNames {
		if _, dup := dimSlot[d]; dup {
			return nil, fmt.Errorf("kir: kernel %s: duplicate dim %q", k.Name, d)
		}
		dimSlot[d] = i
	}
	cp := &Compiled{kernel: k}
	lp, partitionable := singleOuterLoop(k.Body)
	if partitionable {
		// The extent is evaluated via cp.extent rather than compiled code,
		// so its dims must be validated here.
		if d, ok := unknownDim(lp.Extent, dimSlot); !ok {
			return nil, fmt.Errorf("kir: kernel %s: unknown dim %q", k.Name, d)
		}
		cp.extent = compileDimExtent(lp.Extent, dimSlot)
	}
	if err := cp.finalizeBytecode(dimSlot, lp, partitionable); err != nil {
		return nil, err
	}
	return cp, nil
}

// singleOuterLoop reports whether body is exactly one top-level SLoop whose
// extent is computable from dims and constants alone (no locals, no buffer
// loads) — the shape every partitionable kernel must have.
func singleOuterLoop(body []Stmt) (SLoop, bool) {
	if len(body) != 1 {
		return SLoop{}, false
	}
	lp, ok := body[0].(SLoop)
	if !ok || !dimOnly(lp.Extent) {
		return SLoop{}, false
	}
	return lp, true
}

// dimOnly reports whether e uses only IConst/IDim/IBin nodes.
func dimOnly(e IntExpr) bool {
	switch e := e.(type) {
	case IConst, IDim:
		return true
	case IBin:
		return dimOnly(e.A) && dimOnly(e.B)
	default:
		return false
	}
}

// unknownDim finds the first dim name in a dims-only expression that is not
// declared by the kernel; ok is false when one exists.
func unknownDim(e IntExpr, dimSlot map[string]int) (string, bool) {
	switch e := e.(type) {
	case IDim:
		if _, ok := dimSlot[string(e)]; !ok {
			return string(e), false
		}
	case IBin:
		if d, ok := unknownDim(e.A, dimSlot); !ok {
			return d, false
		}
		return unknownDim(e.B, dimSlot)
	}
	return "", true
}

// compileDimExtent compiles a dims-only extent expression to a closure over
// the dim values — the frame-free evaluator behind OuterExtent. The caller
// guarantees dimOnly(e); unknown dims are reported by the main compile of
// the same expression, so this evaluator maps them to 0.
func compileDimExtent(e IntExpr, dimSlot map[string]int) func(dims []int) int {
	switch e := e.(type) {
	case IConst:
		v := int(e)
		return func([]int) int { return v }
	case IDim:
		slot, ok := dimSlot[string(e)]
		if !ok {
			return func([]int) int { return 0 }
		}
		return func(dims []int) int { return dims[slot] }
	case IBin:
		a := compileDimExtent(e.A, dimSlot)
		b := compileDimExtent(e.B, dimSlot)
		switch e.Op {
		case IAdd:
			return func(d []int) int { return a(d) + b(d) }
		case ISub:
			return func(d []int) int { return a(d) - b(d) }
		case IMul:
			return func(d []int) int { return a(d) * b(d) }
		case IDiv:
			return func(d []int) int { return a(d) / b(d) }
		case IMod:
			return func(d []int) int { return a(d) % b(d) }
		case IMin:
			return func(d []int) int {
				x, y := a(d), b(d)
				if x < y {
					return x
				}
				return y
			}
		}
	}
	return func([]int) int { return 0 }
}

// MustFinalize is Finalize that panics; for statically-known-good kernels
// in tests.
func (k *Kernel) MustFinalize() *Compiled {
	cp, err := k.Finalize()
	if err != nil {
		panic(err)
	}
	return cp
}

func (cp *Compiled) checkArgs(bufs [][]float32, dims []int) error {
	if len(bufs) != cp.kernel.NumBuffers {
		return fmt.Errorf("kir: kernel %s: got %d buffers, want %d",
			cp.kernel.Name, len(bufs), cp.kernel.NumBuffers)
	}
	if len(dims) != len(cp.kernel.DimNames) {
		return fmt.Errorf("kir: kernel %s: got %d dims, want %d",
			cp.kernel.Name, len(dims), len(cp.kernel.DimNames))
	}
	return nil
}

func (cp *Compiled) getFrame(bufs [][]float32, dims []int) *Frame {
	f, _ := cp.frames.Get().(*Frame)
	if f == nil {
		f = &Frame{
			ints:   make([]int, cp.nInts),
			floats: make([]float32, cp.nFloats),
		}
	}
	f.bufs = bufs
	f.dims = dims
	return f
}

// putFrame clears the buffer and dim references before pooling so a pooled
// frame never pins caller memory — including when the kernel panicked and
// the put runs from a defer.
func (cp *Compiled) putFrame(f *Frame) {
	f.bufs = nil
	f.dims = nil
	cp.frames.Put(f)
}

// Run executes the kernel against flat buffers and positional dim values
// (aligned with Kernel.DimNames). The frame is returned to the pool even if
// the kernel panics (exec's fault handler recovers kernel panics; the frame
// must not leak with them).
func (cp *Compiled) Run(bufs [][]float32, dims []int) error {
	if err := cp.checkArgs(bufs, dims); err != nil {
		return err
	}
	f := cp.getFrame(bufs, dims)
	defer cp.putFrame(f)
	if cp.prog.loReg >= 0 {
		f.ints[cp.prog.loReg] = 0
		f.ints[cp.prog.hiReg] = cp.extent(dims)
	}
	cp.prog.exec(f)
	return nil
}

// Partitionable reports whether the kernel can be executed in outer-loop
// ranges (single top-level loop with a dims-only extent). Concurrent
// RunRange calls over disjoint ranges are safe as long as the ranges write
// disjoint output elements — the lowering's responsibility, declared via
// codegen's ParallelOuter flag.
func (cp *Compiled) Partitionable() bool { return cp.extent != nil }

// OuterExtent evaluates the outer loop's extent for concrete dims. It
// returns 0 when the kernel is not partitionable. The evaluation reads the
// dim values directly — no frame is built.
func (cp *Compiled) OuterExtent(dims []int) int {
	if cp.extent == nil || len(dims) != len(cp.kernel.DimNames) {
		return 0
	}
	return cp.extent(dims)
}

// RunRange executes outer-loop iterations [lo, hi) only. Iterations run in
// ascending order, exactly as a full Run would visit them, so splitting
// [0, extent) into contiguous ranges produces bit-identical stores. The
// range is seeded into the program's dedicated lo/hi registers before
// dispatch.
func (cp *Compiled) RunRange(bufs [][]float32, dims []int, lo, hi int) error {
	if cp.extent == nil {
		return fmt.Errorf("kir: kernel %s: not partitionable", cp.kernel.Name)
	}
	if err := cp.checkArgs(bufs, dims); err != nil {
		return err
	}
	if n := cp.extent(dims); hi > n {
		hi = n
	}
	if lo < 0 {
		lo = 0
	}
	f := cp.getFrame(bufs, dims)
	defer cp.putFrame(f)
	f.ints[cp.prog.loReg] = lo
	f.ints[cp.prog.hiReg] = hi
	cp.prog.exec(f)
	return nil
}

// Name returns the kernel's name.
func (cp *Compiled) Name() string { return cp.kernel.Name }

// AST returns the kernel AST this program was compiled from. The AST is
// pure data, so it is what the engine cache serializes; decoding re-runs
// Finalize to regenerate the program.
func (cp *Compiled) AST() *Kernel { return cp.kernel }

// DimNames returns the runtime dim parameter names.
func (cp *Compiled) DimNames() []string { return cp.kernel.DimNames }

// Superinstructions reports how many whole-row superinstructions the
// bytecode compiler emitted — exposed for tests and tracing.
func (cp *Compiled) Superinstructions() int { return cp.prog.supers }
