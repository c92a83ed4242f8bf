package kir

import "testing"

// BenchmarkKernelElementwise measures the per-element cost of a fused
// elementwise loop — the substrate's headline number. The exp/relu body
// deliberately defeats the superinstruction matcher's single-op rows, so
// this is the generic dispatch loop, not a row op.
func BenchmarkKernelElementwise(b *testing.B) {
	k := &Kernel{
		Name:       "fused",
		NumBuffers: 2,
		DimNames:   []string{"n"},
		Body: []Stmt{
			SLoop{Var: "i", Extent: IDim("n"), Body: []Stmt{
				SSet{Var: "v", Val: FUn{Fn: "exp", X: FLoad{Buf: 0, Idx: IVar("i")}}},
				SSet{Var: "w", Val: FBin{Fn: "add", A: FLocal("v"), B: FConst(1)}},
				SStore{Buf: 1, Idx: IVar("i"), Val: FUn{Fn: "relu", X: FLocal("w")}},
			}},
		},
	}
	const n = 1 << 14
	bufs := [][]float32{make([]float32, n), make([]float32, n)}
	dims := []int{n}
	cp, err := k.Finalize()
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(n * 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cp.Run(bufs, dims); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKernelAxpyRow measures a superinstruction-eligible row
// (out = in*2 + rest is a zipS): bytecode runs it as one row op per kernel.
func BenchmarkKernelAxpyRow(b *testing.B) {
	k := &Kernel{
		Name:       "axpy",
		NumBuffers: 2,
		DimNames:   []string{"n"},
		Body: []Stmt{
			SLoop{Var: "i", Extent: IDim("n"), Flags: LoopStride1, Body: []Stmt{
				SStore{Buf: 1, Idx: IVar("i"),
					Val: FBin{Fn: "mul", A: FLoad{Buf: 0, Idx: IVar("i")}, B: FConst(2)}},
			}},
		},
	}
	const n = 1 << 14
	bufs := [][]float32{make([]float32, n), make([]float32, n)}
	dims := []int{n}
	cp, err := k.Finalize()
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(n * 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cp.Run(bufs, dims); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKernelRowReduce measures the one-pass reduction superinstruction.
func BenchmarkKernelRowReduce(b *testing.B) {
	k := &Kernel{
		Name:       "rowsum",
		NumBuffers: 2,
		DimNames:   []string{"r", "l"},
		Body: []Stmt{
			SLoop{Var: "i", Extent: IDim("r"), Body: []Stmt{
				SSet{Var: "acc", Val: FConst(0)},
				SLoop{Var: "j", Extent: IDim("l"), Flags: LoopStride1, Body: []Stmt{
					SSet{Var: "acc", Val: FBin{Fn: "add", A: FLocal("acc"),
						B: FLoad{Buf: 0, Idx: Add(Mul(IVar("i"), IDim("l")), IVar("j"))}}},
				}},
				SStore{Buf: 1, Idx: IVar("i"), Val: FLocal("acc")},
			}},
		},
	}
	const r, l = 128, 128
	bufs := [][]float32{make([]float32, r*l), make([]float32, r*l)}
	dims := []int{r, l}
	cp, err := k.Finalize()
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(r * l * 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cp.Run(bufs, dims); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFinalize measures compilation latency: register allocation plus
// superinstruction pattern matching.
func BenchmarkFinalize(b *testing.B) {
	k := &Kernel{
		Name:       "k",
		NumBuffers: 3,
		DimNames:   []string{"R", "L"},
		Body: []Stmt{
			SLoop{Var: "r", Extent: IDim("R"), Body: []Stmt{
				SSet{Var: "acc", Val: FConst(0)},
				SLoop{Var: "j", Extent: IDim("L"), Flags: LoopStride1, Body: []Stmt{
					SSet{Var: "acc", Val: FBin{Fn: "add", A: FLocal("acc"),
						B: FLoad{Buf: 0, Idx: Add(Mul(IVar("r"), IDim("L")), IVar("j"))}}},
				}},
				SStore{Buf: 1, Idx: IVar("r"), Val: FLocal("acc")},
			}},
		},
	}
	for i := 0; i < b.N; i++ {
		if _, err := k.Finalize(); err != nil {
			b.Fatal(err)
		}
	}
}
