package codegen

import (
	"fmt"

	"godisc/internal/graph"
	"godisc/internal/kir"
)

// lowerDataKernel lowers standalone data-movement ops (transpose, concat,
// slice, gather). These are single-op groups by construction; their kernels
// are shape-generic like everything else, with one generic variant (data
// movement has no useful specialization in this model beyond its
// inherently strided efficiency).
func (lw *lowerer) lowerDataKernel() (*Kernel, error) {
	if len(lw.g.Nodes) != 1 {
		return nil, fmt.Errorf("codegen: data group with %d nodes", len(lw.g.Nodes))
	}
	n := lw.g.Nodes[0]
	var (
		prog *kir.Kernel
		err  error
		eff  = 0.7
		// transpose/slice store at the outer index and gather writes a
		// disjoint row per outer index; concat/pad have multiple top-level
		// loops and stay sequential.
		parallel = false
	)
	switch n.Kind {
	case graph.OpTranspose:
		prog, err = lw.transposeKernel(n)
		eff = 0.55 // strided global reads
		parallel = true
	case graph.OpConcat:
		prog, err = lw.concatKernel(n)
	case graph.OpSlice:
		prog, err = lw.sliceKernel(n)
		parallel = true
	case graph.OpGather:
		prog, err = lw.gatherKernel(n)
		parallel = true
	case graph.OpPad:
		prog, err = lw.padKernel(n)
	default:
		return nil, fmt.Errorf("codegen: op %s is not a data-movement op", n.Kind)
	}
	if err != nil {
		return nil, err
	}
	cp, err := prog.Finalize()
	if err != nil {
		return nil, err
	}
	return &Kernel{
		Name:          prog.Name,
		Group:         lw.g,
		Dims:          lw.dims,
		FlopsPerPoint: 0,
		Passes:        1,
		ParallelOuter: parallel,
		GrainPoints:   grainPoints(0),
		Variants: []*Variant{{
			Name: "generic", Code: cp,
			MemEfficiency: eff, ComputeEfficiency: 0.4,
		}},
	}, nil
}

// strideExprs computes row-major stride expressions for a symbolic shape;
// index len(s) is the innermost stride 1.
func (lw *lowerer) strideExprs(s []kir.IntExpr) []kir.IntExpr {
	strides := make([]kir.IntExpr, len(s)+1)
	strides[len(s)] = kir.IConst(1)
	for i := len(s) - 1; i >= 0; i-- {
		strides[i] = kir.Mul(s[i], strides[i+1])
	}
	return strides
}

func (lw *lowerer) shapeExprs(n *graph.Node) []kir.IntExpr {
	out := make([]kir.IntExpr, n.Rank())
	for i, d := range n.Shape {
		out[i] = lw.dimExpr(d)
	}
	return out
}

// transposeKernel writes each output row (the innermost output axis) with a
// stride-1 inner sweep: the outer loop walks rows of the output, decodes the
// row's coordinates once with a div/mod chain, and the inner loop reads the
// input at a loop-invariant stride. When the permutation preserves the last
// axis (the attention (0,2,1,3) family) the source stride folds to 1 and the
// sweep is a straight row copy; otherwise it is a strided gather. Either way
// the per-element div/mod decode of the old flat formulation is gone.
func (lw *lowerer) transposeKernel(n *graph.Node) (*kir.Kernel, error) {
	in := n.Inputs[0]
	inBuf := lw.bufIndex[in]
	outBuf := lw.bufIndex[n]
	outDims := lw.shapeExprs(n)
	inDims := lw.shapeExprs(in)
	inStr := lw.strideExprs(inDims)
	r := n.Rank()
	last := outDims[r-1]
	pstr := lw.strideExprs(outDims[:r-1])
	var prefix kir.IntExpr = kir.IConst(1)
	for _, d := range outDims[:r-1] {
		prefix = kir.Mul(prefix, d)
	}
	// Source base for the row: every output coordinate but the last, scaled
	// by the input stride of the axis it came from.
	var src kir.IntExpr = kir.IConst(0)
	for i := 0; i < r-1; i++ {
		coord := kir.Mod(kir.Div(kir.IVar("ro"), pstr[i+1]), outDims[i])
		src = kir.Add(src, kir.Mul(coord, inStr[n.Perm[i]+1]))
	}
	step := inStr[n.Perm[r-1]+1]
	return &kir.Kernel{
		Name:       fmt.Sprintf("transpose_g%d", lw.g.ID),
		NumBuffers: lw.nBufs,
		DimNames:   lw.dimNames(),
		Body: []kir.Stmt{
			kir.SLoop{Var: "ro", Extent: prefix, Body: []kir.Stmt{
				kir.SSetInt{Var: "rb", Val: kir.Mul(kir.IVar("ro"), last)},
				kir.SSetInt{Var: "sb", Val: src},
				kir.SLoop{Var: "rj", Extent: last, Flags: kir.LoopStride1, Body: []kir.Stmt{
					kir.SStore{
						Buf: outBuf,
						Idx: kir.Add(kir.IVar("rb"), kir.IVar("rj")),
						Val: kir.FLoad{Buf: inBuf, Idx: kir.Add(kir.IVar("sb"), kir.Mul(kir.IVar("rj"), step))},
					},
				}},
			}},
		},
	}, nil
}

// concatKernel copies each input into its offset slab of the output along
// the concat axis. Offsets are symbolic sums of the preceding extents.
func (lw *lowerer) concatKernel(n *graph.Node) (*kir.Kernel, error) {
	outBuf := lw.bufIndex[n]
	axis := n.Axis
	outDims := lw.shapeExprs(n)
	// outer = prod(dims before axis), inner = prod(dims after axis).
	var outer kir.IntExpr = kir.IConst(1)
	for i := 0; i < axis; i++ {
		outer = kir.Mul(outer, outDims[i])
	}
	var inner kir.IntExpr = kir.IConst(1)
	for i := axis + 1; i < n.Rank(); i++ {
		inner = kir.Mul(inner, outDims[i])
	}
	total := outDims[axis]
	var body []kir.Stmt
	var offset kir.IntExpr = kir.IConst(0)
	for t, in := range n.Inputs {
		inBuf := lw.bufIndex[in]
		ext := lw.dimExpr(in.Shape[axis])
		ov, kv, iv := fmt.Sprintf("o%d", t), fmt.Sprintf("k%d", t), fmt.Sprintf("x%d", t)
		dst := kir.Add(kir.Mul(kir.Add(kir.Mul(kir.IVar(ov), total), kir.Add(offset, kir.IVar(kv))), inner), kir.IVar(iv))
		src := kir.Add(kir.Mul(kir.Add(kir.Mul(kir.IVar(ov), ext), kir.IVar(kv)), inner), kir.IVar(iv))
		body = append(body, kir.SLoop{Var: ov, Extent: outer, Body: []kir.Stmt{
			kir.SLoop{Var: kv, Extent: ext, Body: []kir.Stmt{
				kir.SLoop{Var: iv, Extent: inner, Flags: kir.LoopStride1, Body: []kir.Stmt{
					kir.SStore{Buf: outBuf, Idx: dst, Val: kir.FLoad{Buf: inBuf, Idx: src}},
				}},
			}},
		}})
		offset = kir.Add(offset, ext)
	}
	return &kir.Kernel{
		Name:       fmt.Sprintf("concat_g%d", lw.g.ID),
		NumBuffers: lw.nBufs,
		DimNames:   lw.dimNames(),
		Body:       body,
	}, nil
}

// sliceKernel extracts a static window from a (possibly dynamic) input.
func (lw *lowerer) sliceKernel(n *graph.Node) (*kir.Kernel, error) {
	in := n.Inputs[0]
	inBuf := lw.bufIndex[in]
	outBuf := lw.bufIndex[n]
	inStr := lw.strideExprs(lw.shapeExprs(in))
	outDims := lw.shapeExprs(n)
	r := n.Rank()
	last := outDims[r-1]
	pstr := lw.strideExprs(outDims[:r-1])
	var prefix kir.IntExpr = kir.IConst(1)
	for _, d := range outDims[:r-1] {
		prefix = kir.Mul(prefix, d)
	}
	// Rows of the window are contiguous in the input (the last axis has
	// stride 1 on both sides), so the inner sweep is a plain row copy from a
	// per-row base decoded once in the outer loop.
	src := kir.Mul(kir.IConst(n.Starts[r-1]), inStr[r])
	for i := 0; i < r-1; i++ {
		coord := kir.Mod(kir.Div(kir.IVar("ro"), pstr[i+1]), outDims[i])
		src = kir.Add(src, kir.Mul(kir.Add(coord, kir.IConst(n.Starts[i])), inStr[i+1]))
	}
	return &kir.Kernel{
		Name:       fmt.Sprintf("slice_g%d", lw.g.ID),
		NumBuffers: lw.nBufs,
		DimNames:   lw.dimNames(),
		Body: []kir.Stmt{
			kir.SLoop{Var: "ro", Extent: prefix, Body: []kir.Stmt{
				kir.SSetInt{Var: "rb", Val: kir.Mul(kir.IVar("ro"), last)},
				kir.SSetInt{Var: "sb", Val: src},
				kir.SLoop{Var: "rj", Extent: last, Flags: kir.LoopStride1, Body: []kir.Stmt{
					kir.SStore{
						Buf: outBuf,
						Idx: kir.Add(kir.IVar("rb"), kir.IVar("rj")),
						Val: kir.FLoad{Buf: inBuf, Idx: kir.Add(kir.IVar("sb"), kir.IVar("rj"))},
					},
				}},
			}},
		},
	}, nil
}

// padKernel zeroes the output then copies the input into its offset window.
func (lw *lowerer) padKernel(n *graph.Node) (*kir.Kernel, error) {
	in := n.Inputs[0]
	inBuf := lw.bufIndex[in]
	outBuf := lw.bufIndex[n]
	inDims := lw.shapeExprs(in)
	outStr := lw.strideExprs(lw.shapeExprs(n))
	r := n.Rank()
	last := inDims[r-1]
	pstr := lw.strideExprs(inDims[:r-1])
	var prefix kir.IntExpr = kir.IConst(1)
	for _, d := range inDims[:r-1] {
		prefix = kir.Mul(prefix, d)
	}
	// The zero sweep is a flat stride-1 fill; the copy walks input rows
	// (contiguous on both sides since the last axis keeps stride 1) into
	// their shifted windows, decoding each row's destination base once.
	dst := kir.Mul(kir.IConst(n.PadLo[r-1]), outStr[r])
	for i := 0; i < r-1; i++ {
		coord := kir.Mod(kir.Div(kir.IVar("ro"), pstr[i+1]), inDims[i])
		dst = kir.Add(dst, kir.Mul(kir.Add(coord, kir.IConst(n.PadLo[i])), outStr[i+1]))
	}
	outTotal := lw.numelExpr(n.Shape)
	return &kir.Kernel{
		Name:       fmt.Sprintf("pad_g%d", lw.g.ID),
		NumBuffers: lw.nBufs,
		DimNames:   lw.dimNames(),
		Body: []kir.Stmt{
			kir.SLoop{Var: "z", Extent: outTotal, Flags: kir.LoopStride1, Body: []kir.Stmt{
				kir.SStore{Buf: outBuf, Idx: kir.IVar("z"), Val: kir.FConst(0)},
			}},
			kir.SLoop{Var: "ro", Extent: prefix, Body: []kir.Stmt{
				kir.SSetInt{Var: "db", Val: dst},
				kir.SSetInt{Var: "sb", Val: kir.Mul(kir.IVar("ro"), last)},
				kir.SLoop{Var: "rj", Extent: last, Flags: kir.LoopStride1, Body: []kir.Stmt{
					kir.SStore{
						Buf: outBuf,
						Idx: kir.Add(kir.IVar("db"), kir.IVar("rj")),
						Val: kir.FLoad{Buf: inBuf, Idx: kir.Add(kir.IVar("sb"), kir.IVar("rj"))},
					},
				}},
			}},
		},
	}, nil
}

// gatherKernel: out[i, :] = table[indices[i], :]; index values arrive as
// exact integers in the f32 indices buffer.
func (lw *lowerer) gatherKernel(n *graph.Node) (*kir.Kernel, error) {
	table, indices := n.Inputs[0], n.Inputs[1]
	tBuf := lw.bufIndex[table]
	iBuf := lw.bufIndex[indices]
	outBuf := lw.bufIndex[n]
	var rowLen kir.IntExpr = kir.IConst(1)
	for _, d := range table.Shape[1:] {
		rowLen = kir.Mul(rowLen, lw.dimExpr(d))
	}
	idxCount := lw.numelExpr(indices.Shape)
	return &kir.Kernel{
		Name:       fmt.Sprintf("gather_g%d", lw.g.ID),
		NumBuffers: lw.nBufs,
		DimNames:   lw.dimNames(),
		Body: []kir.Stmt{
			kir.SLoop{Var: "i", Extent: idxCount, Body: []kir.Stmt{
				kir.SSetInt{Var: "t", Val: kir.ILoad{Buf: iBuf, Idx: kir.IVar("i")}},
				kir.SLoop{Var: "j", Extent: rowLen, Flags: kir.LoopStride1, Body: []kir.Stmt{
					kir.SStore{
						Buf: outBuf,
						Idx: kir.Add(kir.Mul(kir.IVar("i"), rowLen), kir.IVar("j")),
						Val: kir.FLoad{Buf: tBuf, Idx: kir.Add(kir.Mul(kir.IVar("t"), rowLen), kir.IVar("j"))},
					},
				}},
			}},
		},
	}, nil
}
