// Package kir is the loop-level kernel IR that fusion groups are lowered
// into — the stand-in for BladeDISC's LLVM/CUDA code generation. A Kernel
// is shape-generic: loop extents reference named runtime dimension
// parameters rather than constants, so one kernel serves every concrete
// shape (the paper's compile-time/runtime combined codegen). Finalize
// performs the "compile-time" half — validating the program and compiling
// it to register bytecode — and Run performs the "runtime" half,
// binding concrete dimension values and buffers.
//
// The IR is deliberately small: integer index expressions, f32 scalar
// expressions (booleans are 0/1 floats), sequential statements, loops, and
// stores. All buffers are flat []float32; multi-dimensional indexing is
// explicit arithmetic, exactly as in generated GPU code.
package kir

import "fmt"

// IntExpr is an integer-valued expression (indices, extents).
type IntExpr interface {
	intExpr()
	String() string
}

// IConst is an integer literal.
type IConst int

// IDim references a runtime dimension parameter by name.
type IDim string

// IVar references a loop variable or integer local.
type IVar string

// IntOp enumerates integer arithmetic operators.
type IntOp uint8

// Integer operator values.
const (
	IAdd IntOp = iota
	ISub
	IMul
	IDiv
	IMod
	// IMin yields the smaller operand — used by partitioned reduction
	// programs to clamp the last chunk's extent.
	IMin
)

// IBin is a binary integer operation.
type IBin struct {
	Op   IntOp
	A, B IntExpr
}

// ILoad reads Buf[Idx] and truncates to int — used by gather kernels whose
// index tensors arrive as exact small integers in f32 buffers.
type ILoad struct {
	Buf int
	Idx IntExpr
}

func (IConst) intExpr() {}
func (IDim) intExpr()   {}
func (IVar) intExpr()   {}
func (IBin) intExpr()   {}
func (ILoad) intExpr()  {}

// String implements fmt.Stringer.
func (e IConst) String() string { return fmt.Sprintf("%d", int(e)) }

// String implements fmt.Stringer.
func (e IDim) String() string { return "$" + string(e) }

// String implements fmt.Stringer.
func (e IVar) String() string { return string(e) }

// String implements fmt.Stringer.
func (e IBin) String() string {
	if e.Op == IMin {
		return fmt.Sprintf("min(%s, %s)", e.A, e.B)
	}
	ops := [...]string{"+", "-", "*", "/", "%"}
	return fmt.Sprintf("(%s %s %s)", e.A, ops[e.Op], e.B)
}

// String implements fmt.Stringer.
func (e ILoad) String() string { return fmt.Sprintf("int(b%d[%s])", e.Buf, e.Idx) }

// Expr is an f32-valued scalar expression.
type Expr interface {
	expr()
	String() string
}

// FConst is an f32 literal.
type FConst float32

// FLoad reads Buf[Idx].
type FLoad struct {
	Buf int
	Idx IntExpr
}

// FLocal references an f32 local set by SSet.
type FLocal string

// FUn applies a named unary scalar function (see FuncTable).
type FUn struct {
	Fn string
	X  Expr
}

// FBin applies a named binary scalar function (see FuncTable).
type FBin struct {
	Fn   string
	A, B Expr
}

// FCmp compares and yields 1.0 or 0.0. Op is lt|le|gt|ge|eq|ne.
type FCmp struct {
	Op   string
	A, B Expr
}

// FSel yields A when P != 0, else B.
type FSel struct {
	P, A, B Expr
}

// FCastInt converts an integer expression to f32 (for iota-like patterns).
type FCastInt struct {
	X IntExpr
}

func (FConst) expr()   {}
func (FLoad) expr()    {}
func (FLocal) expr()   {}
func (FUn) expr()      {}
func (FBin) expr()     {}
func (FCmp) expr()     {}
func (FSel) expr()     {}
func (FCastInt) expr() {}

// String implements fmt.Stringer.
func (e FConst) String() string { return fmt.Sprintf("%g", float32(e)) }

// String implements fmt.Stringer.
func (e FLoad) String() string { return fmt.Sprintf("b%d[%s]", e.Buf, e.Idx) }

// String implements fmt.Stringer.
func (e FLocal) String() string { return string(e) }

// String implements fmt.Stringer.
func (e FUn) String() string { return fmt.Sprintf("%s(%s)", e.Fn, e.X) }

// String implements fmt.Stringer.
func (e FBin) String() string { return fmt.Sprintf("%s(%s, %s)", e.Fn, e.A, e.B) }

// String implements fmt.Stringer.
func (e FCmp) String() string { return fmt.Sprintf("(%s %s %s)", e.A, e.Op, e.B) }

// String implements fmt.Stringer.
func (e FSel) String() string { return fmt.Sprintf("sel(%s, %s, %s)", e.P, e.A, e.B) }

// String implements fmt.Stringer.
func (e FCastInt) String() string { return fmt.Sprintf("f32(%s)", e.X) }

// Stmt is a kernel statement.
type Stmt interface {
	stmt()
}

// LoopFlags carries lowering hints attached to a loop. Hints never change
// semantics: they gate *attempts* at bytecode superinstruction matching,
// and every match is still verified structurally, so a wrong flag can cost
// speed but never correctness.
type LoopFlags uint8

// LoopStride1 marks a loop the lowering believes walks buffers
// contiguously (unit stride in the loop variable), making it a candidate
// for whole-row superinstructions.
const LoopStride1 LoopFlags = 1 << 0

// SLoop runs Body with Var = 0..Extent-1.
type SLoop struct {
	Var    string
	Extent IntExpr
	Body   []Stmt
	// Flags are optional lowering hints (see LoopFlags). Zero is always
	// safe; old serialized kernels decode with zero flags and simply skip
	// superinstruction matching.
	Flags LoopFlags
}

// SSet assigns an f32 local.
type SSet struct {
	Var string
	Val Expr
}

// SSetInt assigns an integer local.
type SSetInt struct {
	Var string
	Val IntExpr
}

// SStore writes Buf[Idx] = Val.
type SStore struct {
	Buf int
	Idx IntExpr
	Val Expr
}

// SStoreInt writes Buf[Idx] = float32(Val); used by index-producing kernels.
type SStoreInt struct {
	Buf int
	Idx IntExpr
	Val IntExpr
}

func (SLoop) stmt()     {}
func (SSet) stmt()      {}
func (SSetInt) stmt()   {}
func (SStore) stmt()    {}
func (SStoreInt) stmt() {}

// Kernel is a shape-generic kernel program.
type Kernel struct {
	Name string
	// NumBuffers is the number of flat f32 buffers the kernel touches;
	// Run receives exactly this many, inputs first then outputs by the
	// caller's convention.
	NumBuffers int
	// DimNames are the runtime dimension parameters, bound positionally
	// at Run time.
	DimNames []string
	Body     []Stmt
}

// Helpers for building index arithmetic without deep nesting noise.

// Mul returns a*b, folding constants.
func Mul(a, b IntExpr) IntExpr {
	if ca, ok := a.(IConst); ok {
		if cb, ok := b.(IConst); ok {
			return IConst(int(ca) * int(cb))
		}
		if ca == 1 {
			return b
		}
	}
	if cb, ok := b.(IConst); ok && cb == 1 {
		return a
	}
	return IBin{Op: IMul, A: a, B: b}
}

// Add returns a+b, folding constants.
func Add(a, b IntExpr) IntExpr {
	if ca, ok := a.(IConst); ok {
		if cb, ok := b.(IConst); ok {
			return IConst(int(ca) + int(cb))
		}
		if ca == 0 {
			return b
		}
	}
	if cb, ok := b.(IConst); ok && cb == 0 {
		return a
	}
	return IBin{Op: IAdd, A: a, B: b}
}

// Div returns a/b, folding constants.
func Div(a, b IntExpr) IntExpr {
	if cb, ok := b.(IConst); ok && cb == 1 {
		return a
	}
	return IBin{Op: IDiv, A: a, B: b}
}

// Mod returns a%b.
func Mod(a, b IntExpr) IntExpr { return IBin{Op: IMod, A: a, B: b} }

// Min returns min(a,b), folding constants.
func Min(a, b IntExpr) IntExpr {
	if ca, ok := a.(IConst); ok {
		if cb, ok := b.(IConst); ok {
			if ca < cb {
				return ca
			}
			return cb
		}
	}
	return IBin{Op: IMin, A: a, B: b}
}
