package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNumel(t *testing.T) {
	cases := []struct {
		shape []int
		want  int
	}{
		{nil, 1},
		{[]int{0}, 0},
		{[]int{3}, 3},
		{[]int{2, 3, 4}, 24},
	}
	for _, c := range cases {
		if got := Numel(c.shape); got != c.want {
			t.Errorf("Numel(%v) = %d, want %d", c.shape, got, c.want)
		}
	}
}

func TestNewZeroFilled(t *testing.T) {
	ts := New(F32, 2, 3)
	for i, v := range ts.F32() {
		if v != 0 {
			t.Fatalf("element %d = %v, want 0", i, v)
		}
	}
	if ts.Numel() != 6 || ts.Bytes() != 24 {
		t.Fatalf("Numel=%d Bytes=%d", ts.Numel(), ts.Bytes())
	}
}

func TestFromF32PanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromF32([]float32{1, 2, 3}, 2, 2)
}

func TestReshapeSharesStorage(t *testing.T) {
	a := FromF32([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	b := a.Reshape(3, 2)
	b.F32()[0] = 42
	if a.F32()[0] != 42 {
		t.Fatal("Reshape must share storage")
	}
	if !ShapeEq(b.Shape(), []int{3, 2}) {
		t.Fatalf("shape %v", b.Shape())
	}
}

func TestCloneIndependent(t *testing.T) {
	a := FromF32([]float32{1, 2}, 2)
	b := a.Clone()
	b.F32()[0] = 9
	if a.F32()[0] != 1 {
		t.Fatal("Clone must copy storage")
	}
}

func TestStrides(t *testing.T) {
	got := Strides([]int{2, 3, 4})
	want := []int{12, 4, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Strides = %v, want %v", got, want)
		}
	}
}

func TestBroadcastShapes(t *testing.T) {
	cases := []struct {
		a, b, want []int
		err        bool
	}{
		{[]int{2, 3}, []int{2, 3}, []int{2, 3}, false},
		{[]int{2, 1}, []int{2, 3}, []int{2, 3}, false},
		{[]int{3}, []int{2, 3}, []int{2, 3}, false},
		{[]int{1}, []int{7, 5}, []int{7, 5}, false},
		{[]int{2, 2}, []int{2, 3}, nil, true},
	}
	for _, c := range cases {
		got, err := BroadcastShapes(c.a, c.b)
		if c.err {
			if err == nil {
				t.Errorf("BroadcastShapes(%v,%v): expected error", c.a, c.b)
			}
			continue
		}
		if err != nil {
			t.Errorf("BroadcastShapes(%v,%v): %v", c.a, c.b, err)
			continue
		}
		if !ShapeEq(got, c.want) {
			t.Errorf("BroadcastShapes(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestBinaryBroadcast(t *testing.T) {
	a := FromF32([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromF32([]float32{10, 20, 30}, 3)
	got := Binary(a, b, FnAdd)
	want := []float32{11, 22, 33, 14, 25, 36}
	for i := range want {
		if got.F32()[i] != want[i] {
			t.Fatalf("got %v, want %v", got.F32(), want)
		}
	}
}

func TestBinaryScalarBroadcast(t *testing.T) {
	a := FromF32([]float32{1, 2, 3, 4}, 2, 2)
	s := Scalar(0.5)
	got := Binary(a, s, FnMul)
	want := []float32{0.5, 1, 1.5, 2}
	for i := range want {
		if got.F32()[i] != want[i] {
			t.Fatalf("got %v, want %v", got.F32(), want)
		}
	}
}

func TestUnaryFns(t *testing.T) {
	in := FromF32([]float32{-1, 0, 1, 2}, 4)
	relu := Unary(in, FnRelu)
	want := []float32{0, 0, 1, 2}
	for i := range want {
		if relu.F32()[i] != want[i] {
			t.Fatalf("relu got %v", relu.F32())
		}
	}
	gelu := Unary(Scalar(0), FnGelu)
	if gelu.F32()[0] != 0 {
		t.Fatalf("gelu(0) = %v", gelu.F32()[0])
	}
	// gelu(x) ~ x for large x, ~0 for very negative x.
	if g := Unary(Scalar(10), FnGelu).F32()[0]; math.Abs(float64(g-10)) > 1e-3 {
		t.Fatalf("gelu(10) = %v", g)
	}
}

func TestMatMul2D(t *testing.T) {
	a := FromF32([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromF32([]float32{7, 8, 9, 10, 11, 12}, 3, 2)
	got := MatMul(a, b)
	want := []float32{58, 64, 139, 154}
	if !ShapeEq(got.Shape(), []int{2, 2}) {
		t.Fatalf("shape %v", got.Shape())
	}
	for i := range want {
		if got.F32()[i] != want[i] {
			t.Fatalf("got %v, want %v", got.F32(), want)
		}
	}
}

// TestMatMulUnrolledBitIdentical checks the unrolled matmul2d against the
// plain one-element ikj loop bit for bit, over widths that exercise the
// four-wide body, the remainder loop and both together (zeros in a
// exercise the skip).
func TestMatMulUnrolledBitIdentical(t *testing.T) {
	r := NewRNG(11)
	for n := 1; n <= 13; n++ {
		const m, k = 3, 7
		a, b := RandN(r, 1, m, k).F32(), RandN(r, 1, k, n).F32()
		a[2] = 0
		want := make([]float32, m*n)
		for i := 0; i < m; i++ {
			for p := 0; p < k; p++ {
				if av := a[i*k+p]; av != 0 {
					for j := 0; j < n; j++ {
						want[i*n+j] += av * b[p*n+j]
					}
				}
			}
		}
		got := make([]float32, m*n)
		matmul2d(got, a, b, m, k, n)
		for i := range want {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("n=%d: element %d = %v, plain loop %v", n, i, got[i], want[i])
			}
		}
	}
}

func TestMatMulBatchBroadcast(t *testing.T) {
	r := NewRNG(1)
	a := RandN(r, 1, 4, 2, 3) // batch 4
	b := RandN(r, 1, 3, 5)    // broadcast over batch
	got := MatMul(a, b)
	if !ShapeEq(got.Shape(), []int{4, 2, 5}) {
		t.Fatalf("shape %v", got.Shape())
	}
	// Verify batch 2 against the 2-D product.
	a2 := Slice(a, []int{2, 0, 0}, []int{1, 2, 3}).Reshape(2, 3)
	want := MatMul(a2, b)
	gotSlice := Slice(got, []int{2, 0, 0}, []int{1, 2, 5}).Reshape(2, 5)
	if err := AllClose(gotSlice, want, 1e-6, 1e-6); err != nil {
		t.Fatal(err)
	}
}

func TestReduceSumAxes(t *testing.T) {
	a := FromF32([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	got := Reduce(a, ReduceSum, []int{1}, false)
	if !ShapeEq(got.Shape(), []int{2}) {
		t.Fatalf("shape %v", got.Shape())
	}
	if got.F32()[0] != 6 || got.F32()[1] != 15 {
		t.Fatalf("got %v", got.F32())
	}
	kd := Reduce(a, ReduceSum, []int{1}, true)
	if !ShapeEq(kd.Shape(), []int{2, 1}) {
		t.Fatalf("keepDims shape %v", kd.Shape())
	}
	all := Reduce(a, ReduceSum, []int{0, 1}, false)
	if all.Numel() != 1 || all.F32()[0] != 21 {
		t.Fatalf("all-axis %v", all.F32())
	}
}

func TestReduceMaxMeanNegAxis(t *testing.T) {
	a := FromF32([]float32{1, 5, 2, -3, 0, 4}, 2, 3)
	mx := Reduce(a, ReduceMax, []int{-1}, false)
	if mx.F32()[0] != 5 || mx.F32()[1] != 4 {
		t.Fatalf("max %v", mx.F32())
	}
	mean := Reduce(a, ReduceMean, []int{0}, false)
	want := []float32{-1, 2.5, 3}
	for i := range want {
		if mean.F32()[i] != want[i] {
			t.Fatalf("mean %v want %v", mean.F32(), want)
		}
	}
}

func TestSoftmaxRowsSumToOne(t *testing.T) {
	r := NewRNG(7)
	a := RandN(r, 3, 4, 7)
	s := Softmax(a)
	sums := Reduce(s, ReduceSum, []int{-1}, false)
	for i, v := range sums.F32() {
		if math.Abs(float64(v)-1) > 1e-5 {
			t.Fatalf("row %d sums to %v", i, v)
		}
	}
	// Softmax is shift invariant.
	shifted := Binary(a, Scalar(100), FnAdd)
	if err := AllClose(Softmax(shifted), s, 1e-5, 1e-6); err != nil {
		t.Fatalf("shift invariance: %v", err)
	}
}

func TestLayerNormStats(t *testing.T) {
	r := NewRNG(3)
	a := RandN(r, 2, 5, 16)
	gamma := FromF32(onesSlice(16), 16)
	beta := Zeros(16)
	out := LayerNorm(a, gamma, beta, 1e-5)
	// Each row should have ~0 mean and ~1 variance.
	mean := Reduce(out, ReduceMean, []int{-1}, false)
	for _, v := range mean.F32() {
		if math.Abs(float64(v)) > 1e-4 {
			t.Fatalf("row mean %v", v)
		}
	}
	sq := Binary(out, out, FnMul)
	varr := Reduce(sq, ReduceMean, []int{-1}, false)
	for _, v := range varr.F32() {
		if math.Abs(float64(v)-1) > 1e-2 {
			t.Fatalf("row variance %v", v)
		}
	}
}

func onesSlice(n int) []float32 {
	s := make([]float32, n)
	for i := range s {
		s[i] = 1
	}
	return s
}

func TestTranspose(t *testing.T) {
	a := FromF32([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	got := Transpose(a, []int{1, 0})
	want := []float32{1, 4, 2, 5, 3, 6}
	if !ShapeEq(got.Shape(), []int{3, 2}) {
		t.Fatalf("shape %v", got.Shape())
	}
	for i := range want {
		if got.F32()[i] != want[i] {
			t.Fatalf("got %v want %v", got.F32(), want)
		}
	}
}

func TestTransposeRoundTrip(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		a := RandN(r, 1, 2, 3, 4)
		perm := []int{2, 0, 1}
		inv := []int{1, 2, 0}
		back := Transpose(Transpose(a, perm), inv)
		return AllClose(a, back, 0, 0) == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestConcat(t *testing.T) {
	a := FromF32([]float32{1, 2, 3, 4}, 2, 2)
	b := FromF32([]float32{5, 6}, 2, 1)
	got := Concat(1, a, b)
	want := []float32{1, 2, 5, 3, 4, 6}
	if !ShapeEq(got.Shape(), []int{2, 3}) {
		t.Fatalf("shape %v", got.Shape())
	}
	for i := range want {
		if got.F32()[i] != want[i] {
			t.Fatalf("got %v want %v", got.F32(), want)
		}
	}
	axis0 := Concat(0, a, a)
	if !ShapeEq(axis0.Shape(), []int{4, 2}) {
		t.Fatalf("axis0 shape %v", axis0.Shape())
	}
}

func TestSliceExtract(t *testing.T) {
	a := FromF32([]float32{0, 1, 2, 3, 4, 5, 6, 7, 8}, 3, 3)
	got := Slice(a, []int{1, 0}, []int{2, 2})
	want := []float32{3, 4, 6, 7}
	for i := range want {
		if got.F32()[i] != want[i] {
			t.Fatalf("got %v want %v", got.F32(), want)
		}
	}
}

func TestGather(t *testing.T) {
	table := FromF32([]float32{10, 11, 20, 21, 30, 31}, 3, 2)
	idx := FromI32([]int32{2, 0, 2}, 3)
	got := Gather(table, idx)
	want := []float32{30, 31, 10, 11, 30, 31}
	if !ShapeEq(got.Shape(), []int{3, 2}) {
		t.Fatalf("shape %v", got.Shape())
	}
	for i := range want {
		if got.F32()[i] != want[i] {
			t.Fatalf("got %v want %v", got.F32(), want)
		}
	}
}

func TestPad(t *testing.T) {
	a := FromF32([]float32{1, 2, 3, 4}, 2, 2)
	got := Pad(a, []int{3, 4}, 0)
	if !ShapeEq(got.Shape(), []int{3, 4}) {
		t.Fatalf("shape %v", got.Shape())
	}
	if got.F32()[0] != 1 || got.F32()[1] != 2 || got.F32()[4] != 3 || got.F32()[5] != 4 {
		t.Fatalf("payload misplaced: %v", got.F32())
	}
	var sum float32
	for _, v := range got.F32() {
		sum += v
	}
	if sum != 10 {
		t.Fatalf("padding must be zero, sum=%v", sum)
	}
}

func TestCompareAndSelect(t *testing.T) {
	a := FromF32([]float32{1, 5, 3}, 3)
	b := FromF32([]float32{2, 2, 3}, 3)
	lt := Compare(a, b, "lt")
	wantB := []bool{true, false, false}
	for i := range wantB {
		if lt.Bools()[i] != wantB[i] {
			t.Fatalf("lt %v", lt.Bools())
		}
	}
	sel := Select(lt, a, b)
	want := []float32{1, 2, 3}
	for i := range want {
		if sel.F32()[i] != want[i] {
			t.Fatalf("select %v", sel.F32())
		}
	}
}

func TestBroadcastTo(t *testing.T) {
	a := FromF32([]float32{1, 2, 3}, 1, 3)
	got := BroadcastTo(a, []int{2, 3})
	want := []float32{1, 2, 3, 1, 2, 3}
	for i := range want {
		if got.F32()[i] != want[i] {
			t.Fatalf("got %v", got.F32())
		}
	}
}

func TestAllCloseDetectsMismatch(t *testing.T) {
	a := FromF32([]float32{1, 2}, 2)
	b := FromF32([]float32{1, 2.5}, 2)
	if err := AllClose(a, b, 0, 0.1); err == nil {
		t.Fatal("expected mismatch")
	}
	if err := AllClose(a, b, 0, 1); err != nil {
		t.Fatalf("within tolerance: %v", err)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("RNG must be deterministic")
		}
	}
}

// Property: matmul distributes over addition: A(B+C) == AB + AC.
func TestMatMulDistributive(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		a := RandN(r, 1, 4, 3)
		b := RandN(r, 1, 3, 5)
		c := RandN(r, 1, 3, 5)
		lhs := MatMul(a, Binary(b, c, FnAdd))
		rhs := Binary(MatMul(a, b), MatMul(a, c), FnAdd)
		return AllClose(lhs, rhs, 1e-4, 1e-4) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: reduce-sum over all axes equals the sum of the flat data.
func TestReduceSumTotal(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		a := RandN(r, 1, 3, 4, 5)
		total := Reduce(a, ReduceSum, []int{0, 1, 2}, false)
		var want float64
		for _, v := range a.F32() {
			want += float64(v)
		}
		return math.Abs(float64(total.F32()[0])-want) < 1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
