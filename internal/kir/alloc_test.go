//go:build !race

// The zero-alloc gate. Under the race detector sync.Pool intentionally drops
// entries to widen interleavings, so frame reuse (and with it the 0 allocs/op
// guarantee) only holds in normal builds.

package kir

import "testing"

// allocGateKernels are the kernel shapes the dispatch loop must execute with
// zero heap allocations per Run/RunRange: a fused elementwise map, a
// row-reduction, and an indirect gather (ILoad-based indexing).
func allocGateKernels() []*Kernel {
	return []*Kernel{
		{
			Name:       "elementwise",
			NumBuffers: 2,
			DimNames:   []string{"n"},
			Body: []Stmt{
				SLoop{Var: "i", Extent: IDim("n"), Flags: LoopStride1, Body: []Stmt{
					SSet{Var: "v", Val: FUn{Fn: "exp", X: FLoad{Buf: 0, Idx: IVar("i")}}},
					SStore{Buf: 1, Idx: IVar("i"), Val: FBin{Fn: "add", A: FLocal("v"), B: FConst(1)}},
				}},
			},
		},
		{
			Name:       "reduce",
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
		},
		{
			Name:       "gather",
			NumBuffers: 3,
			DimNames:   []string{"r", "l"},
			Body: []Stmt{
				SLoop{Var: "i", Extent: IDim("r"), Body: []Stmt{
					SSetInt{Var: "t", Val: IBin{Op: IMod,
						A: IBin{Op: IAdd,
							A: IBin{Op: IMod, A: ILoad{Buf: 1, Idx: IVar("i")}, B: IDim("r")},
							B: IDim("r")},
						B: IDim("r")}},
					SLoop{Var: "j", Extent: IDim("l"), Flags: LoopStride1, Body: []Stmt{
						SStore{Buf: 2,
							Idx: Add(Mul(IVar("i"), IDim("l")), IVar("j")),
							Val: FLoad{Buf: 0, Idx: Add(Mul(IVar("t"), IDim("l")), IVar("j"))}},
					}},
				}},
			},
		},
	}
}

func allocGateBufs(k *Kernel) ([][]float32, []int) {
	dims := make([]int, len(k.DimNames))
	for i := range dims {
		dims[i] = 32
	}
	size := 1
	for _, d := range dims {
		size *= d
	}
	bufs := make([][]float32, k.NumBuffers)
	for i := range bufs {
		bufs[i] = make([]float32, size)
		for j := range bufs[i] {
			bufs[i][j] = float32(j%7) - 3
		}
	}
	return bufs, dims
}

// TestZeroAllocDispatch asserts the VM's hard budget: after warmup, a Run
// (and RunRange, for partitionable kernels) performs zero heap allocations
// — the frame pool absorbs everything.
func TestZeroAllocDispatch(t *testing.T) {
	t.Run("bytecode", func(t *testing.T) {
		for _, k := range allocGateKernels() {
			t.Run(k.Name, func(t *testing.T) {
				cp, err := k.Finalize()
				if err != nil {
					t.Fatal(err)
				}
				bufs, dims := allocGateBufs(k)
				// Warm the frame pool before counting.
				if err := cp.Run(bufs, dims); err != nil {
					t.Fatal(err)
				}
				if n := testing.AllocsPerRun(100, func() {
					if err := cp.Run(bufs, dims); err != nil {
						t.Fatal(err)
					}
				}); n != 0 {
					t.Fatalf("Run: %v allocs/op, want 0", n)
				}
				if !cp.Partitionable() {
					return
				}
				ext := cp.OuterExtent(dims)
				if n := testing.AllocsPerRun(100, func() {
					if err := cp.RunRange(bufs, dims, 0, ext/2); err != nil {
						t.Fatal(err)
					}
					if err := cp.RunRange(bufs, dims, ext/2, ext); err != nil {
						t.Fatal(err)
					}
				}); n != 0 {
					t.Fatalf("RunRange: %v allocs/op, want 0", n)
				}
			})
		}
	})
}

// TestOuterExtentZeroAlloc pins satellite #2: the parallel executor calls
// OuterExtent on every dispatch to size its grain, so it must not borrow a
// frame (or allocate at all).
func TestOuterExtentZeroAlloc(t *testing.T) {
	k := allocGateKernels()[1] // reduce: partitionable
	cp, err := k.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	_, dims := allocGateBufs(k)
	if !cp.Partitionable() {
		t.Fatal("reduce kernel should be partitionable")
	}
	if n := testing.AllocsPerRun(100, func() {
		if cp.OuterExtent(dims) != 32 {
			t.Fatal("wrong extent")
		}
	}); n != 0 {
		t.Fatalf("OuterExtent: %v allocs/op, want 0", n)
	}
}
