package kir

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The differential suite: random programs are executed by the bytecode VM
// and the reference tree-walking interpreter, and all stores must agree
// bit for bit (math.Float32bits equality, so NaN
// propagation and -0 are checked too). Partitionable programs additionally
// run as random contiguous RunRange splits, which must reproduce the full
// run exactly.

// genProgram builds a random valid kernel from the seed. Every buffer index
// is kept in bounds by construction (non-negative affine/min/mod arithmetic
// reduced mod the domain size), so generated programs never fault and any
// divergence between the VM and the interpreter is a genuine compiler bug.
type progGen struct {
	r       *rand.Rand
	k       *Kernel
	intVars []string // defined int locals + live loop vars
	fltVars []string // defined f32 locals
	nextVar int
	depth   int
}

var genUnary = []string{"neg", "abs", "exp", "log", "sqrt", "rsqrt", "tanh", "erf", "sigmoid", "relu", "gelu", "id"}
var genBinary = []string{"add", "sub", "mul", "div", "pow", "max", "min"}
var genCmp = []string{"lt", "le", "gt", "ge", "eq", "ne"}

func genProgram(seed int64) *Kernel {
	r := rand.New(rand.NewSource(seed))
	g := &progGen{r: r}
	g.k = &Kernel{
		Name:       fmt.Sprintf("fuzz_%d", seed),
		NumBuffers: 2 + r.Intn(3),
		DimNames:   []string{"d0", "d1"}[:1+r.Intn(2)],
	}
	if r.Intn(3) == 0 {
		// Partitionable shape: a single outer loop over a dims-only extent.
		v := g.fresh("i")
		g.intVars = append(g.intVars, v)
		g.k.Body = []Stmt{SLoop{Var: v, Extent: g.dimExtent(), Body: g.stmts(2 + r.Intn(3))}}
		g.intVars = g.intVars[:0]
	} else {
		g.k.Body = g.stmts(2 + r.Intn(4))
	}
	return g.k
}

func (g *progGen) fresh(prefix string) string {
	g.nextVar++
	return fmt.Sprintf("%s%d", prefix, g.nextVar)
}

// total is the guaranteed size of every buffer: the product of the dims.
func (g *progGen) total() IntExpr {
	var e IntExpr = IConst(1)
	for _, d := range g.k.DimNames {
		e = IBin{Op: IMul, A: e, B: IDim(d)}
	}
	return e
}

// dimExtent is a dims-only loop extent (for partitionable outer loops).
func (g *progGen) dimExtent() IntExpr {
	d := IDim(g.k.DimNames[g.r.Intn(len(g.k.DimNames))])
	switch g.r.Intn(3) {
	case 0:
		return d
	case 1:
		return Min(d, IConst(1+g.r.Intn(6)))
	default:
		return g.total()
	}
}

// intExpr generates a non-negative integer expression (no ISub, divisors
// and moduli are positive constants) so indices stay safe under Mod.
func (g *progGen) intExpr(depth int) IntExpr {
	if depth <= 0 || g.r.Intn(3) == 0 {
		switch g.r.Intn(3) {
		case 0:
			return IConst(g.r.Intn(5))
		case 1:
			return IDim(g.k.DimNames[g.r.Intn(len(g.k.DimNames))])
		default:
			if len(g.intVars) == 0 {
				return IConst(g.r.Intn(5))
			}
			return IVar(g.intVars[g.r.Intn(len(g.intVars))])
		}
	}
	a, b := g.intExpr(depth-1), g.intExpr(depth-1)
	switch g.r.Intn(4) {
	case 0:
		return IBin{Op: IAdd, A: a, B: b}
	case 1:
		return IBin{Op: IMul, A: a, B: b}
	case 2:
		return IBin{Op: IMin, A: a, B: b}
	default:
		op := IDiv
		if g.r.Intn(2) == 0 {
			op = IMod
		}
		return IBin{Op: op, A: a, B: IConst(1 + g.r.Intn(4))}
	}
}

// index wraps a random non-negative expression mod the buffer size.
func (g *progGen) index() IntExpr {
	return IBin{Op: IMod, A: g.intExpr(2), B: g.total()}
}

func (g *progGen) fltExpr(depth int) Expr {
	if depth <= 0 || g.r.Intn(4) == 0 {
		switch g.r.Intn(3) {
		case 0:
			return FConst(float32(g.r.NormFloat64()))
		case 1:
			if len(g.fltVars) == 0 {
				return FConst(float32(g.r.Intn(7)) - 3)
			}
			return FLocal(g.fltVars[g.r.Intn(len(g.fltVars))])
		default:
			return FLoad{Buf: g.r.Intn(g.k.NumBuffers), Idx: g.index()}
		}
	}
	switch g.r.Intn(5) {
	case 0:
		return FUn{Fn: genUnary[g.r.Intn(len(genUnary))], X: g.fltExpr(depth - 1)}
	case 1:
		return FBin{Fn: genBinary[g.r.Intn(len(genBinary))], A: g.fltExpr(depth - 1), B: g.fltExpr(depth - 1)}
	case 2:
		return FCmp{Op: genCmp[g.r.Intn(len(genCmp))], A: g.fltExpr(depth - 1), B: g.fltExpr(depth - 1)}
	case 3:
		return FSel{P: g.fltExpr(depth - 1), A: g.fltExpr(depth - 1), B: g.fltExpr(depth - 1)}
	default:
		return FCastInt{X: g.intExpr(2)}
	}
}

func (g *progGen) stmts(n int) []Stmt {
	var out []Stmt
	for i := 0; i < n; i++ {
		out = append(out, g.stmt())
	}
	return out
}

func (g *progGen) stmt() Stmt {
	if g.depth < 2 && g.r.Intn(4) == 0 {
		// A nested loop; randomly flagged stride-1 to exercise both the
		// superinstruction matcher and its structural rejection (a wrong
		// hint must never change results).
		g.depth++
		v := g.fresh("i")
		var flags LoopFlags
		if g.r.Intn(2) == 0 {
			flags = LoopStride1
		}
		// The extent generates before the loop variable enters scope: an
		// extent referencing its own variable is a use-before-definition
		// that both compilers reject.
		extent := g.loopExtent()
		ni, nf := len(g.intVars), len(g.fltVars)
		g.intVars = append(g.intVars, v)
		var body []Stmt
		if g.r.Intn(2) == 0 {
			var maxBase, div int
			body, maxBase, div = g.rowBody(v)
			// Affine row indices are base+v with base <= maxBase, so the
			// sweep length is clamped to total-maxBase to stay in bounds
			// (a negative clamp just skips the loop). Strided gather rows
			// additionally divide by their stride so base+v*stride stays
			// in bounds too.
			clamp := IntExpr(IBin{Op: ISub, A: g.total(), B: IConst(maxBase)})
			if div > 1 {
				clamp = IBin{Op: IDiv, A: clamp, B: IConst(div)}
			}
			extent = Min(extent, clamp)
		} else {
			body = g.stmts(1 + g.r.Intn(3))
		}
		// Locals defined inside the body go out of scope with the loop: a
		// later read would be undominated when the loop runs zero times
		// (the interpreter faults on it while compiled code reads a stale
		// register).
		g.intVars = g.intVars[:ni]
		g.fltVars = g.fltVars[:nf]
		g.depth--
		return SLoop{Var: v, Extent: extent, Body: body, Flags: flags}
	}
	switch g.r.Intn(4) {
	case 0:
		v := g.fresh("x")
		s := SSetInt{Var: v, Val: g.intExpr(2)}
		g.intVars = append(g.intVars, v)
		return s
	case 1:
		v := g.fresh("f")
		s := SSet{Var: v, Val: g.fltExpr(2)}
		g.fltVars = append(g.fltVars, v)
		return s
	case 2:
		return SStoreInt{Buf: g.r.Intn(g.k.NumBuffers), Idx: g.index(), Val: g.intExpr(2)}
	default:
		return SStore{Buf: g.r.Intn(g.k.NumBuffers), Idx: g.index(), Val: g.fltExpr(2)}
	}
}

func (g *progGen) loopExtent() IntExpr {
	switch g.r.Intn(3) {
	case 0:
		return IConst(g.r.Intn(7))
	case 1:
		return IDim(g.k.DimNames[g.r.Intn(len(g.k.DimNames))])
	default:
		return Min(g.intExpr(1), IConst(8))
	}
}

// rowBody builds a loop body shaped like the lowering's contiguous sweeps
// (affine stride-1 indices off a loop-invariant base) so the generated
// corpus actually exercises every superinstruction, not just the generic
// dispatch loop. Returned maxBase bounds every affine base constant; the
// caller clamps the loop extent to total-maxBase so affine indices stay in
// bounds. Mod-wrapped index variants are emitted too — those are non-affine
// on purpose, so the matcher must fall back to generic code, never
// mis-compile.
func (g *progGen) rowBody(v string) ([]Stmt, int, int) {
	nb := g.k.NumBuffers
	dst, x, y := g.r.Intn(nb), g.r.Intn(nb), g.r.Intn(nb)
	maxBase, div := 0, 1
	idx := func() IntExpr {
		if g.r.Intn(2) == 0 {
			c := g.r.Intn(3)
			if c > maxBase {
				maxBase = c
			}
			return Add(IConst(c), IVar(v))
		}
		return IBin{Op: IMod, A: IBin{Op: IAdd, A: g.intExpr(1), B: IVar(v)}, B: g.total()}
	}
	un := genUnary[g.r.Intn(len(genUnary))]
	bin := genBinary[g.r.Intn(len(genBinary))]
	load := func(b int) Expr { return FLoad{Buf: b, Idx: idx()} }
	var body []Stmt
	switch g.r.Intn(11) {
	case 0: // copy
		body = []Stmt{SStore{Buf: dst, Idx: idx(), Val: load(x)}}
	case 1: // map1
		body = []Stmt{SStore{Buf: dst, Idx: idx(), Val: FUn{Fn: un, X: load(x)}}}
	case 2: // zip
		body = []Stmt{SStore{Buf: dst, Idx: idx(),
			Val: FBin{Fn: bin, A: load(x), B: load(y)}}}
	case 3: // zipS (either operand order)
		s := Expr(FConst(float32(g.r.NormFloat64())))
		a, b := Expr(load(x)), s
		if g.r.Intn(2) == 0 {
			a, b = b, a
		}
		body = []Stmt{SStore{Buf: dst, Idx: idx(), Val: FBin{Fn: bin, A: a, B: b}}}
	case 4: // mapZipS through a local definition (forward substitution)
		lv := g.fresh("t")
		body = []Stmt{
			SSet{Var: lv, Val: FBin{Fn: bin, A: load(x), B: FConst(2)}},
			SStore{Buf: dst, Idx: idx(), Val: FUn{Fn: un, X: FLocal(lv)}},
		}
	case 5: // zip2S
		body = []Stmt{SStore{Buf: dst, Idx: idx(),
			Val: FBin{Fn: bin, A: FBin{Fn: "sub", A: load(x), B: FConst(1)}, B: FConst(3)}}}
	case 6: // mapZip: vector-vector un∘bin fusion
		body = []Stmt{SStore{Buf: dst, Idx: idx(),
			Val: FUn{Fn: un, X: FBin{Fn: bin, A: load(x), B: load(y)}}}}
	case 7: // fill from a constant or an invariant load (possibly aliasing
		// dst — the matcher must reject that one, not mis-fuse it)
		s := Expr(FConst(float32(g.r.NormFloat64())))
		if g.r.Intn(2) == 0 {
			s = FLoad{Buf: y, Idx: IConst(0)}
		}
		body = []Stmt{SStore{Buf: dst, Idx: idx(), Val: s}}
	case 8: // strided gather: dst[base+v] = [un](x[base + v*2])
		div = 2
		gl := Expr(FLoad{Buf: x, Idx: Mul(IVar(v), IConst(2))})
		if g.r.Intn(2) == 0 {
			gl = FUn{Fn: un, X: gl}
		}
		body = []Stmt{SStore{Buf: dst, Idx: idx(), Val: gl}}
	case 9: // fused store+reduce: dst[i] = E; acc = bin(acc, E)
		if len(g.fltVars) == 0 {
			body = []Stmt{SStore{Buf: dst, Idx: idx(), Val: load(x)}}
			break
		}
		acc := g.fltVars[g.r.Intn(len(g.fltVars))]
		val := load(x)
		switch g.r.Intn(3) {
		case 0:
			val = FUn{Fn: un, X: FBin{Fn: bin, A: val, B: FConst(1)}}
		case 1:
			val = FUn{Fn: un, X: val}
		}
		body = []Stmt{
			SStore{Buf: dst, Idx: idx(), Val: val},
			SSet{Var: acc, Val: FBin{Fn: bin, A: FLocal(acc), B: val}},
		}
	default: // reduce accumulate into an existing (initialized) accumulator
		if len(g.fltVars) == 0 {
			// No initialized local to fold into; degrade to a copy row.
			body = []Stmt{SStore{Buf: dst, Idx: idx(), Val: load(x)}}
			break
		}
		acc := g.fltVars[g.r.Intn(len(g.fltVars))]
		body = []Stmt{
			SSet{Var: acc, Val: FBin{Fn: bin, A: FLocal(acc), B: load(x)}},
		}
	}
	return body, maxBase, div
}

// fillBufs deterministically fills buffers with a spread of values
// (positives, negatives, zeros) so NaN-producing paths are hit too.
func fillBufs(n, size int, seed int64) [][]float32 {
	r := rand.New(rand.NewSource(seed))
	bufs := make([][]float32, n)
	for i := range bufs {
		b := make([]float32, size)
		for j := range b {
			b[j] = float32(r.NormFloat64())
		}
		bufs[i] = b
	}
	return bufs
}

func cloneBufs(b [][]float32) [][]float32 {
	out := make([][]float32, len(b))
	for i := range b {
		out[i] = append([]float32(nil), b[i]...)
	}
	return out
}

func bufsBitEqual(a, b [][]float32) (int, int, bool) {
	for i := range a {
		for j := range a[i] {
			if math.Float32bits(a[i][j]) != math.Float32bits(b[i][j]) {
				return i, j, false
			}
		}
	}
	return 0, 0, true
}

// checkDifferential compiles k to bytecode, runs it and the reference
// interpreter on identical inputs, and requires bit-identical stores. For
// partitionable programs it re-runs the bytecode via random contiguous
// RunRange splits. Returns an error description or "" on agreement.
func checkDifferential(k *Kernel, dims []int, seed int64) string {
	cp, err := k.Finalize()
	if err != nil {
		return fmt.Sprintf("finalize: %v", err)
	}
	size := 1
	for _, d := range dims {
		size *= d
	}
	if size < 1 {
		size = 1
	}
	ref := fillBufs(k.NumBuffers, size, seed)
	bc := cloneBufs(ref)
	if err := Interpret(k, ref, dims); err != nil {
		// The interpreter rejects (e.g. undefined local read at runtime);
		// Finalize rejects the same programs at compile time, so a
		// runtime-only interpreter error means the program never reached
		// a defined state worth comparing.
		return fmt.Sprintf("interpreter error on finalizable program: %v", err)
	}
	if err := cp.Run(bc, dims); err != nil {
		return fmt.Sprintf("bytecode run: %v", err)
	}
	if i, j, ok := bufsBitEqual(bc, ref); !ok {
		return fmt.Sprintf("bytecode vs interpreter: buf %d[%d]: %x != %x\n%s",
			i, j, math.Float32bits(bc[i][j]), math.Float32bits(ref[i][j]), cp.Disassemble())
	}
	if !cp.Partitionable() {
		return ""
	}
	// Random contiguous splits must replay the full run exactly.
	n := cp.OuterExtent(dims)
	r := rand.New(rand.NewSource(seed ^ 0x5eed))
	for trial := 0; trial < 3; trial++ {
		rng := cloneBufs(fillBufs(k.NumBuffers, size, seed))
		lo := 0
		for lo < n {
			hi := lo + 1 + r.Intn(n-lo)
			if err := cp.RunRange(rng, dims, lo, hi); err != nil {
				return fmt.Sprintf("RunRange(%d,%d): %v", lo, hi, err)
			}
			lo = hi
		}
		if i, j, ok := bufsBitEqual(rng, bc); !ok {
			return fmt.Sprintf("RunRange split vs full run: buf %d[%d]: %x != %x\n%s",
				i, j, math.Float32bits(rng[i][j]), math.Float32bits(bc[i][j]), cp.Disassemble())
		}
	}
	return ""
}

func dimsForSeed(k *Kernel, seed int64) []int {
	r := rand.New(rand.NewSource(seed + 7))
	dims := make([]int, len(k.DimNames))
	for i := range dims {
		dims[i] = 1 + r.Intn(9)
	}
	return dims
}

func TestDifferentialRandomPrograms(t *testing.T) {
	for seed := int64(0); seed < 400; seed++ {
		k := genProgram(seed)
		if msg := checkDifferential(k, dimsForSeed(k, seed), seed); msg != "" {
			t.Fatalf("seed %d: %s\nkernel:\n%s", seed, msg, k)
		}
	}
}

// TestDifferentialHandWritten pins the shapes the lowering actually emits:
// softmax-style sweeps, axpy rows, strided unrolled bodies, gather-style
// indirect row copies (ILoad bases), and overlapping same-buffer copies
// (where memmove semantics would diverge from element order).
func TestDifferentialHandWritten(t *testing.T) {
	rowLen := IDim("n")
	cases := []*Kernel{
		// Gather: out rows copied from a table through an index buffer.
		{Name: "gather", NumBuffers: 3, DimNames: []string{"n", "r"},
			Body: []Stmt{SLoop{Var: "i", Extent: IDim("r"), Body: []Stmt{
				// The index buffer holds arbitrary floats; ((x % r) + r) % r
				// folds them into [0, r) (Go's % keeps the sign of x).
				SSetInt{Var: "t", Val: IBin{
					Op: IMod,
					A: IBin{Op: IAdd,
						A: IBin{Op: IMod, A: ILoad{Buf: 1, Idx: IVar("i")}, B: IDim("r")},
						B: IDim("r")},
					B: IDim("r")}},
				SLoop{Var: "j", Extent: rowLen, Flags: LoopStride1, Body: []Stmt{
					SStore{Buf: 2,
						Idx: IBin{Op: IMod, A: Add(Mul(IVar("i"), rowLen), IVar("j")), B: Mul(IDim("n"), IDim("r"))},
						Val: FLoad{Buf: 0, Idx: IBin{Op: IMod, A: Add(Mul(IVar("t"), rowLen), IVar("j")), B: Mul(IDim("n"), IDim("r"))}}},
				}},
			}}}},
		// Same-buffer overlapping copy: must behave like an ascending
		// element loop, not memmove.
		{Name: "overlap", NumBuffers: 1, DimNames: []string{"n"},
			Body: []Stmt{SLoop{Var: "i", Extent: IDim("n"), Flags: LoopStride1, Body: []Stmt{
				SStore{Buf: 0, Idx: IBin{Op: IMod, A: Add(IVar("i"), IConst(1)), B: Mul(IDim("n"), IConst(1))},
					Val: FLoad{Buf: 0, Idx: IVar("i")}},
			}}}},
		// Softmax-style: max reduce, exp(x-max) with running sum, div by sum.
		{Name: "softmaxish", NumBuffers: 2, DimNames: []string{"n"},
			Body: []Stmt{
				SSet{Var: "m", Val: FConst(float32(math.Inf(-1)))},
				SLoop{Var: "i", Extent: IDim("n"), Flags: LoopStride1, Body: []Stmt{
					SSet{Var: "m", Val: FBin{Fn: "max", A: FLocal("m"), B: FLoad{Buf: 0, Idx: IVar("i")}}},
				}},
				SSet{Var: "s", Val: FConst(0)},
				SLoop{Var: "j", Extent: IDim("n"), Flags: LoopStride1, Body: []Stmt{
					SSet{Var: "e", Val: FUn{Fn: "exp", X: FBin{Fn: "sub", A: FLoad{Buf: 0, Idx: IVar("j")}, B: FLocal("m")}}},
					SStore{Buf: 1, Idx: IVar("j"), Val: FLocal("e")},
					SSet{Var: "s", Val: FBin{Fn: "add", A: FLocal("s"), B: FLocal("e")}},
				}},
				SLoop{Var: "q", Extent: IDim("n"), Flags: LoopStride1, Body: []Stmt{
					SStore{Buf: 1, Idx: IVar("q"), Val: FBin{Fn: "div", A: FLoad{Buf: 1, Idx: IVar("q")}, B: FLocal("s")}},
				}},
			}},
	}
	for _, k := range cases {
		for seed := int64(1); seed <= 5; seed++ {
			if msg := checkDifferential(k, dimsForSeed(k, seed), seed); msg != "" {
				t.Fatalf("%s seed %d: %s", k.Name, seed, msg)
			}
		}
	}
}

// FuzzKIRProgram drives the same generator + differential oracle from the
// native fuzzer: any seed where the bytecode VM and the interpreter disagree (or
// where a RunRange split diverges from the full run) is a crasher.
func FuzzKIRProgram(f *testing.F) {
	for s := int64(0); s < 16; s++ {
		f.Add(s, uint8(3), uint8(4))
	}
	f.Fuzz(func(t *testing.T, seed int64, d0, d1 uint8) {
		k := genProgram(seed)
		dims := make([]int, len(k.DimNames))
		sizes := []int{1 + int(d0)%12, 1 + int(d1)%12}
		copy(dims, sizes[:len(dims)])
		if msg := checkDifferential(k, dims, seed); msg != "" {
			t.Fatalf("seed %d dims %v: %s\nkernel:\n%s", seed, dims, msg, k)
		}
	})
}
