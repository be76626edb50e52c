package tensor

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"feddrl/internal/rng"
)

func TestNewAndShape(t *testing.T) {
	a := New(3, 4)
	if a.Len() != 12 || len(a.Shape) != 2 || a.Rows() != 3 || a.Cols() != 4 {
		t.Fatalf("shape bookkeeping wrong: %+v", a)
	}
	for _, v := range a.Data {
		if v != 0 {
			t.Fatal("New must zero-initialize")
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("New with zero dimension did not panic")
		}
	}()
	New(3, 0)
}

func TestFromSlice(t *testing.T) {
	d := []float64{1, 2, 3, 4, 5, 6}
	a := FromSlice(d, 2, 3)
	if a.At(1, 2) != 6 || a.At(0, 0) != 1 {
		t.Fatalf("FromSlice indexing wrong")
	}
	a.Set(0, 1, 9)
	if d[1] != 9 {
		t.Fatal("FromSlice must not copy")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("FromSlice with wrong volume did not panic")
		}
	}()
	FromSlice(d, 2, 2)
}

func TestRowView(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	r := a.Row(1)
	r[0] = 99
	if a.At(1, 0) != 99 {
		t.Fatal("Row must be a view")
	}
}

func TestCloneIndependence(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	b := a.Clone()
	b.Set(0, 0, 42)
	if a.At(0, 0) != 1 {
		t.Fatal("Clone shares storage")
	}
	if !a.SameShape(b) {
		t.Fatal("Clone changed shape")
	}
}

func TestInPlaceOps(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	b := FromSlice([]float64{10, 20, 30, 40}, 2, 2)
	a.AddInPlace(b)
	if a.At(1, 1) != 44 {
		t.Fatalf("AddInPlace = %v", a.Data)
	}
	a.ScaleInPlace(0.5)
	if a.At(0, 0) != 5.5 {
		t.Fatalf("ScaleInPlace = %v", a.Data)
	}
	Axpy(2, b.Data, a.Data)
	if a.At(0, 1) != 11+40 {
		t.Fatalf("Axpy = %v", a.Data)
	}
	a.Zero()
	for _, v := range a.Data {
		if v != 0 {
			t.Fatal("Zero failed")
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("shape mismatch AddInPlace did not panic")
		}
	}()
	a.AddInPlace(New(1, 4))
}

func TestMatMulSmall(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float64{7, 8, 9, 10, 11, 12}, 3, 2)
	c := New(2, 2)
	MatMulInto(c, a, b)
	want := []float64{58, 64, 139, 154}
	for i, v := range c.Data {
		if v != want[i] {
			t.Fatalf("MatMul = %v, want %v", c.Data, want)
		}
	}
}

func TestMatMulIdentity(t *testing.T) {
	r := rng.New(1)
	a := New(5, 5)
	for i := range a.Data {
		a.Data[i] = r.Normal(0, 1)
	}
	id := New(5, 5)
	for i := 0; i < 5; i++ {
		id.Set(i, i, 1)
	}
	c := New(5, 5)
	MatMulInto(c, a, id)
	for i, v := range c.Data {
		if math.Abs(v-a.Data[i]) > 1e-12 {
			t.Fatal("A·I != A")
		}
	}
}

// naiveMatMul is the reference implementation used to validate the
// optimized / parallel kernels.
func naiveMatMul(a, b *Tensor) *Tensor {
	m, k, n := a.Rows(), a.Cols(), b.Cols()
	out := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			sum := 0.0
			for p := 0; p < k; p++ {
				sum += a.At(i, p) * b.At(p, j)
			}
			out.Set(i, j, sum)
		}
	}
	return out
}

// transposed returns a copy of a 2-D tensor's transpose, to feed the
// Aᵀ·B and A·Bᵀ products to naiveMatMul.
func transposed(a *Tensor) *Tensor {
	out := New(a.Cols(), a.Rows())
	for i := 0; i < a.Rows(); i++ {
		for j := 0; j < a.Cols(); j++ {
			out.Set(j, i, a.At(i, j))
		}
	}
	return out
}

func TestMatMulMatchesNaive(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		m, k, n := 1+r.Intn(12), 1+r.Intn(12), 1+r.Intn(12)
		a, b := New(m, k), New(k, n)
		for i := range a.Data {
			a.Data[i] = r.Normal(0, 2)
		}
		for i := range b.Data {
			b.Data[i] = r.Normal(0, 2)
		}
		got, want := New(m, n), naiveMatMul(a, b)
		MatMulInto(got, a, b)
		for i := range got.Data {
			if math.Abs(got.Data[i]-want.Data[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestMatMulParallelPath(t *testing.T) {
	// Big enough to exceed parallelVolumeThreshold.
	r := rng.New(9)
	a, b := New(128, 64), New(64, 32)
	for i := range a.Data {
		a.Data[i] = r.Normal(0, 1)
	}
	for i := range b.Data {
		b.Data[i] = r.Normal(0, 1)
	}
	got, want := New(128, 32), naiveMatMul(a, b)
	MatMulInto(got, a, b)
	for i := range got.Data {
		if math.Abs(got.Data[i]-want.Data[i]) > 1e-9 {
			t.Fatal("parallel MatMul diverges from naive")
		}
	}
}

func TestMatMulPanics(t *testing.T) {
	a, b := New(2, 3), New(4, 2)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("inner mismatch did not panic")
			}
		}()
		MatMulInto(New(2, 2), a, b)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("aliased dst did not panic")
			}
		}()
		sq := New(3, 3)
		MatMulInto(sq, sq, New(3, 3))
	}()
}

// TestGEMMShortDataPanics requires every GEMM entry point, at both
// widths, to panic before any kernel runs when one operand's Data holds
// fewer elements than its Rows×Cols, and to name that operand's shape
// and length. 16×64×16 reaches the blocked kernel. Each short operand
// keeps its cut tail as capacity, so a kernel that read or wrote past
// the slice's end would do so silently rather than panic.
func TestGEMMShortDataPanics(t *testing.T) {
	const m, k, n, cut = 16, 64, 16, 8
	entries := []struct {
		name string
		v    gemmVariant
		f64  func(dst, a, b *Tensor)
		f32  func(dst, a, b *Tensor32)
	}{
		{"NN", gemmNN, MatMulInto, MatMul32Into},
		{"AT", gemmAT, MatMulATInto, MatMulAT32Into},
		{"BT", gemmBT, MatMulBTInto, MatMulBT32Into},
		{"Naive", gemmNN, MatMulNaiveInto, MatMulNaive32Into},
	}
	wantPanic := func(t *testing.T, shape []int, held int, run func()) {
		t.Helper()
		defer func() {
			msg, _ := recover().(string)
			if !strings.Contains(msg, fmt.Sprint(shape)) || !strings.Contains(msg, fmt.Sprintf("holds %d ", held)) {
				t.Fatalf("panic %q, want one naming shape %v and length %d", msg, shape, held)
			}
		}()
		run()
	}
	for _, e := range entries {
		for role, name := range []string{"dst", "a", "b"} {
			t.Run(fmt.Sprintf("f64_%s_%s", e.name, name), func(t *testing.T) {
				a, b, dst := gemmOperands(e.v, m, k, n)
				op := [...]*Tensor{dst, a, b}[role]
				op.Data = op.Data[:len(op.Data)-cut]
				wantPanic(t, op.Shape, len(op.Data), func() { e.f64(dst, a, b) })
			})
			t.Run(fmt.Sprintf("f32_%s_%s", e.name, name), func(t *testing.T) {
				a, b, dst := gemmOperands32(e.v, m, k, n)
				op := [...]*Tensor32{dst, a, b}[role]
				op.Data = op.Data[:len(op.Data)-cut]
				wantPanic(t, op.Shape, len(op.Data), func() { e.f32(dst, a, b) })
			})
		}
	}
}

func TestMatMulATMatches(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		m, k, n := 1+r.Intn(10), 1+r.Intn(10), 1+r.Intn(10)
		a, b := New(m, k), New(m, n)
		for i := range a.Data {
			a.Data[i] = r.Normal(0, 1)
		}
		for i := range b.Data {
			b.Data[i] = r.Normal(0, 1)
		}
		dst := New(k, n)
		MatMulATInto(dst, a, b)
		want := naiveMatMul(transposed(a), b)
		for i := range dst.Data {
			if math.Abs(dst.Data[i]-want.Data[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestMatMulBTMatches(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		m, k, n := 1+r.Intn(10), 1+r.Intn(10), 1+r.Intn(10)
		a, b := New(m, k), New(n, k)
		for i := range a.Data {
			a.Data[i] = r.Normal(0, 1)
		}
		for i := range b.Data {
			b.Data[i] = r.Normal(0, 1)
		}
		dst := New(m, n)
		MatMulBTInto(dst, a, b)
		want := naiveMatMul(a, transposed(b))
		for i := range dst.Data {
			if math.Abs(dst.Data[i]-want.Data[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestConvGeom(t *testing.T) {
	g := ConvGeom{InC: 3, InH: 8, InW: 8, K: 3, Stride: 1, Pad: 1}
	if g.OutH() != 8 || g.OutW() != 8 {
		t.Fatalf("same-pad geometry wrong: %d x %d", g.OutH(), g.OutW())
	}
	g2 := ConvGeom{InC: 1, InH: 5, InW: 5, K: 3, Stride: 2, Pad: 0}
	if g2.OutH() != 2 || g2.OutW() != 2 {
		t.Fatalf("strided geometry wrong: %d x %d", g2.OutH(), g2.OutW())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("invalid geometry did not panic")
		}
	}()
	ConvGeom{InC: 1, InH: 2, InW: 2, K: 5, Stride: 1, Pad: 0}.Validate()
}

func TestIm2ColIdentityKernel(t *testing.T) {
	// 1x1 kernel, stride 1, no pad: columns are exactly the pixels.
	g := ConvGeom{InC: 1, InH: 3, InW: 3, K: 1, Stride: 1, Pad: 0}
	img := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9}
	cols := New(9, 1)
	Im2ColBatch(NewConvPlan(g), FromSlice(img, 1, len(img)), cols)
	for i, v := range img {
		if cols.Data[i] != v {
			t.Fatalf("1x1 im2col wrong: %v", cols.Data)
		}
	}
}

func TestIm2ColPaddingZeros(t *testing.T) {
	g := ConvGeom{InC: 1, InH: 2, InW: 2, K: 3, Stride: 1, Pad: 1}
	img := []float64{1, 2, 3, 4}
	cols := New(g.OutH()*g.OutW(), g.InC*g.K*g.K)
	Im2ColBatch(NewConvPlan(g), FromSlice(img, 1, len(img)), cols)
	// First output position (0,0) covers rows -1..1, cols -1..1; the
	// top-left 2x2 of the patch is padding.
	first := cols.Row(0)
	want := []float64{0, 0, 0, 0, 1, 2, 0, 3, 4}
	for i, v := range want {
		if first[i] != v {
			t.Fatalf("padded patch = %v, want %v", first, want)
		}
	}
}

func TestCol2ImIsAdjointOfIm2Col(t *testing.T) {
	// The adjoint test: <im2col(x), y> == <x, col2im(y)> for random x, y.
	f := func(seed uint64) bool {
		r := rng.New(seed)
		g := ConvGeom{
			InC:    1 + r.Intn(3),
			InH:    3 + r.Intn(5),
			InW:    3 + r.Intn(5),
			K:      1 + r.Intn(3),
			Stride: 1 + r.Intn(2),
			Pad:    r.Intn(2),
		}
		if g.OutH() <= 0 || g.OutW() <= 0 {
			return true
		}
		plan := NewConvPlan(g)
		n := g.InC * g.InH * g.InW
		x := make([]float64, n)
		for i := range x {
			x[i] = r.Normal(0, 1)
		}
		cols := New(g.OutH()*g.OutW(), g.InC*g.K*g.K)
		Im2ColBatch(plan, FromSlice(x, 1, n), cols)
		y := New(g.OutH()*g.OutW(), g.InC*g.K*g.K)
		for i := range y.Data {
			y.Data[i] = r.Normal(0, 1)
		}
		lhs := 0.0
		for i := range cols.Data {
			lhs += cols.Data[i] * y.Data[i]
		}
		xGrad := make([]float64, n)
		Col2ImBatch(plan, y, FromSlice(xGrad, 1, n))
		rhs := 0.0
		for i := range x {
			rhs += x[i] * xGrad[i]
		}
		return math.Abs(lhs-rhs) < 1e-9*(1+math.Abs(lhs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMatMul64(b *testing.B) {
	r := rng.New(1)
	a, m := New(64, 64), New(64, 64)
	for i := range a.Data {
		a.Data[i] = r.Normal(0, 1)
	}
	for i := range m.Data {
		m.Data[i] = r.Normal(0, 1)
	}
	dst := New(64, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulInto(dst, a, m)
	}
}

// simpleCNNConvs are the simple CNN's two convolution geometries on
// the 1×8×8 mnist-sim images, and lowerBatch a client's batch.
var simpleCNNConvs = []struct {
	name string
	g    ConvGeom
}{
	{"conv1", ConvGeom{InC: 1, InH: 8, InW: 8, K: 3, Stride: 1, Pad: 1}},
	{"conv2", ConvGeom{InC: 8, InH: 4, InW: 4, K: 3, Stride: 1, Pad: 1}},
}

const lowerBatch = 10

// BenchmarkIm2Col times the lowering of a client's batch at each of the
// simple CNN's geometries.
func BenchmarkIm2Col(b *testing.B) {
	for _, c := range simpleCNNConvs {
		b.Run(c.name, func(b *testing.B) {
			plan := NewConvPlan(c.g)
			img := New(lowerBatch, c.g.InC*c.g.InH*c.g.InW)
			fillRandom(img, rng.New(1))
			cols := New(lowerBatch*c.g.OutH()*c.g.OutW(), c.g.InC*c.g.K*c.g.K)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Im2ColBatch(plan, img, cols)
			}
		})
	}
}

// BenchmarkCol2Im times the adjoint, the input gradient's scatter, at
// the same geometries and batch.
func BenchmarkCol2Im(b *testing.B) {
	for _, c := range simpleCNNConvs {
		b.Run(c.name, func(b *testing.B) {
			plan := NewConvPlan(c.g)
			img := New(lowerBatch, c.g.InC*c.g.InH*c.g.InW)
			cols := New(lowerBatch*c.g.OutH()*c.g.OutW(), c.g.InC*c.g.K*c.g.K)
			fillRandom(cols, rng.New(1))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Col2ImBatch(plan, cols, img)
			}
		})
	}
}
