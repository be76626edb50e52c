// Package tensor implements the dense float64 tensors used as the data
// substrate of the neural-network library, over a generic element core
// (generic.go). Only the operations needed by the FedDRL reproduction
// are provided: construction and shape queries, element access, matrix
// multiplication, transpose, the im2col/col2im lowering used by the
// convolution layers, and, for the fl package's f32 federated state,
// exact f64↔f32 conversion (Widen/Quantize) and the f32 merge's axpy
// (precision32.go). Clients train in float64 whatever the run's
// precision; the float32 GEMM (Tensor32, blocked32.go) is reached only
// by its own tests and benchmarks, and has no SIMD tier: it runs the
// portable 4×4 tile on every backend.
//
// The matrix-product kernels of both widths are cache-blocked and
// register-tiled (blocked.go, blocked32.go) with reusable packing
// scratch, so steady-state training allocates nothing, and they
// optionally fan out over the execution pool installed via SetParallel
// — never over raw goroutines — so kernel parallelism composes with
// the work-stealing scheduler instead of oversubscribing it. Blocked,
// naive, sequential and parallel paths are all bit-identical by
// construction, within each precision (see backend.go for the
// backend×precision kernel table).
//
// Tensors are row-major. A 2-D tensor of shape (r, c) stores element
// (i, j) at Data[i*c+j]. Batched activations are 2-D: (batch, features).
package tensor

import "fmt"

// Tensor is a dense, row-major float64 tensor.
type Tensor struct {
	Shape []int
	Data  []float64
}

// New returns a zero tensor with the given shape. Every dimension must be
// positive.
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic(fmt.Sprintf("tensor: non-positive dimension %d in shape %v", d, shape))
		}
		n *= d
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: make([]float64, n)}
}

// FromSlice wraps data in a tensor of the given shape. The slice is used
// directly (not copied); its length must equal the shape's volume.
func FromSlice(data []float64, shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic(fmt.Sprintf("tensor: non-positive dimension %d in shape %v", d, shape))
		}
		n *= d
	}
	if len(data) != n {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v (need %d)", len(data), shape, n))
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: data}
}

// Bind2D repoints the tensor at data with shape (rows, cols) without
// allocating: the existing Shape slice is rewritten when it already has
// two entries. data is used directly (not copied) and its length must be
// rows*cols. This is the reuse-a-header counterpart of FromSlice for hot
// paths that window over a larger backing array chunk by chunk.
func (t *Tensor) Bind2D(data []float64, rows, cols int) *Tensor {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("tensor: non-positive dimension in shape [%d %d]", rows, cols))
	}
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: data length %d does not match shape [%d %d] (need %d)", len(data), rows, cols, rows*cols))
	}
	if len(t.Shape) != 2 {
		t.Shape = make([]int, 2)
	}
	t.Shape[0], t.Shape[1] = rows, cols
	t.Data = data
	return t
}

// Reuse2D reshapes the 2-D buffer buf to (rows, cols) reusing its
// capacity, or allocates a replacement when buf is nil or too small.
// Contents are unspecified. Hot paths keep one buffer per role and
// reassign the result, so warm calls allocate nothing.
func Reuse2D(buf *Tensor, rows, cols int) *Tensor {
	n := rows * cols
	if buf == nil || cap(buf.Data) < n {
		return New(rows, cols)
	}
	buf.Data = buf.Data[:n]
	buf.Shape[0], buf.Shape[1] = rows, cols
	return buf
}

// Len returns the total number of elements.
func (t *Tensor) Len() int { return len(t.Data) }

// Rows and Cols return the 2-D dimensions; they panic for non-2-D tensors.
func (t *Tensor) Rows() int { t.want2D(); return t.Shape[0] }

// Cols returns the number of columns of a 2-D tensor.
func (t *Tensor) Cols() int { t.want2D(); return t.Shape[1] }

func (t *Tensor) want2D() {
	if len(t.Shape) != 2 {
		panic(fmt.Sprintf("tensor: expected 2-D tensor, have shape %v", t.Shape))
	}
}

// At returns element (i, j) of a 2-D tensor.
func (t *Tensor) At(i, j int) float64 {
	t.want2D()
	return t.Data[i*t.Shape[1]+j]
}

// Set assigns element (i, j) of a 2-D tensor.
func (t *Tensor) Set(i, j int, v float64) {
	t.want2D()
	t.Data[i*t.Shape[1]+j] = v
}

// Row returns a view (not a copy) of row i of a 2-D tensor.
func (t *Tensor) Row(i int) []float64 {
	t.want2D()
	c := t.Shape[1]
	return t.Data[i*c : (i+1)*c]
}

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := &Tensor{Shape: append([]int(nil), t.Shape...), Data: make([]float64, len(t.Data))}
	copy(c.Data, t.Data)
	return c
}

// Zero sets all elements to 0.
func (t *Tensor) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// SameShape reports whether t and o have identical shapes.
func (t *Tensor) SameShape(o *Tensor) bool {
	if len(t.Shape) != len(o.Shape) {
		return false
	}
	for i, d := range t.Shape {
		if o.Shape[i] != d {
			return false
		}
	}
	return true
}

// AddInPlace computes t ← t + o through the vectorized elementwise
// kernels (elemwise.go). Shapes must match.
func (t *Tensor) AddInPlace(o *Tensor) {
	if !t.SameShape(o) {
		panic(fmt.Sprintf("tensor: AddInPlace shape mismatch %v vs %v", t.Shape, o.Shape))
	}
	Add(o.Data, t.Data)
}

// ScaleInPlace computes t ← alpha * t through the vectorized elementwise
// kernels.
func (t *Tensor) ScaleInPlace(alpha float64) {
	Scale(alpha, t.Data)
}

// MatMulInto computes dst ← a·b. dst must be m×n and distinct from a and b.
func MatMulInto(dst, a, b *Tensor) {
	m, ka := a.Rows(), a.Cols()
	kb, n := b.Rows(), b.Cols()
	if ka != kb {
		panic(fmt.Sprintf("tensor: MatMul inner dimension mismatch %d vs %d", ka, kb))
	}
	if dst.Rows() != m || dst.Cols() != n {
		panic(fmt.Sprintf("tensor: MatMulInto dst shape %v, want (%d,%d)", dst.Shape, m, n))
	}
	if dst == a || dst == b {
		panic("tensor: MatMulInto dst aliases an input")
	}
	checkLen("MatMulInto", "dst", dst.Shape, dst.Data)
	checkLen("MatMulInto", "a", a.Shape, a.Data)
	checkLen("MatMulInto", "b", b.Shape, b.Data)
	gemmInto(dst, a, b, gemmNN)
}

// checkLen panics unless a 2-D GEMM operand's Data holds exactly the
// Rows×Cols elements its Shape claims. Tensor's fields are exported, so
// a header can claim more elements than it holds, and Go bounds-checks
// only the first element of a pointer the kernels hand to assembly.
func checkLen[E Elem](op, name string, shape []int, data []E) {
	if n := shape[0] * shape[1]; len(data) != n {
		panic(fmt.Sprintf("tensor: %s %s has shape %v but holds %d elements, want %d", op, name, shape, len(data), n))
	}
}

// MatMulNaiveInto computes dst ← a·b with the unblocked reference
// triple loop — the kernel the blocked path is bit-identical to. It
// exists for benchmarks and the verify gate; production callers use
// MatMulInto, which dispatches to the fastest identical path.
func MatMulNaiveInto(dst, a, b *Tensor) {
	m, ka := a.Rows(), a.Cols()
	kb, n := b.Rows(), b.Cols()
	if ka != kb {
		panic(fmt.Sprintf("tensor: MatMul inner dimension mismatch %d vs %d", ka, kb))
	}
	if dst.Rows() != m || dst.Cols() != n {
		panic(fmt.Sprintf("tensor: MatMulNaiveInto dst shape %v, want (%d,%d)", dst.Shape, m, n))
	}
	if dst == a || dst == b {
		panic("tensor: MatMulNaiveInto dst aliases an input")
	}
	checkLen("MatMulNaiveInto", "dst", dst.Shape, dst.Data)
	checkLen("MatMulNaiveInto", "a", a.Shape, a.Data)
	checkLen("MatMulNaiveInto", "b", b.Shape, b.Data)
	gemmNaive(dst, a, b, gemmNN)
}

// MatMulATInto computes dst ← aᵀ·b for a (m×k), b (m×n), dst (k×n).
// Used by Dense backward for weight gradients without materializing aᵀ.
func MatMulATInto(dst, a, b *Tensor) {
	m, k := a.Rows(), a.Cols()
	mb, n := b.Rows(), b.Cols()
	if m != mb {
		panic(fmt.Sprintf("tensor: MatMulAT outer dimension mismatch %d vs %d", m, mb))
	}
	if dst.Rows() != k || dst.Cols() != n {
		panic(fmt.Sprintf("tensor: MatMulATInto dst shape %v, want (%d,%d)", dst.Shape, k, n))
	}
	if dst == a || dst == b {
		panic("tensor: MatMulATInto dst aliases an input")
	}
	checkLen("MatMulATInto", "dst", dst.Shape, dst.Data)
	checkLen("MatMulATInto", "a", a.Shape, a.Data)
	checkLen("MatMulATInto", "b", b.Shape, b.Data)
	gemmInto(dst, a, b, gemmAT)
}

// MatMulBTInto computes dst ← a·bᵀ for a (m×k), b (n×k), dst (m×n).
// Used by Dense backward for input gradients without materializing bᵀ.
func MatMulBTInto(dst, a, b *Tensor) {
	m, k := a.Rows(), a.Cols()
	n, kb := b.Rows(), b.Cols()
	if k != kb {
		panic(fmt.Sprintf("tensor: MatMulBT inner dimension mismatch %d vs %d", k, kb))
	}
	if dst.Rows() != m || dst.Cols() != n {
		panic(fmt.Sprintf("tensor: MatMulBTInto dst shape %v, want (%d,%d)", dst.Shape, m, n))
	}
	if dst == a || dst == b {
		panic("tensor: MatMulBTInto dst aliases an input")
	}
	checkLen("MatMulBTInto", "dst", dst.Shape, dst.Data)
	checkLen("MatMulBTInto", "a", a.Shape, a.Data)
	checkLen("MatMulBTInto", "b", b.Shape, b.Data)
	gemmInto(dst, a, b, gemmBT)
}

// ConvGeom describes a 2-D convolution geometry shared by
// Im2ColBatch/Col2ImBatch and the nn.Conv2D layer.
type ConvGeom struct {
	InC, InH, InW int // input channels and spatial size
	K             int // square kernel size
	Stride        int
	Pad           int
}

// OutH returns the output height of the convolution.
func (g ConvGeom) OutH() int { return (g.InH+2*g.Pad-g.K)/g.Stride + 1 }

// OutW returns the output width of the convolution.
func (g ConvGeom) OutW() int { return (g.InW+2*g.Pad-g.K)/g.Stride + 1 }

// Validate panics if the geometry is inconsistent.
func (g ConvGeom) Validate() {
	if g.InC <= 0 || g.InH <= 0 || g.InW <= 0 || g.K <= 0 || g.Stride <= 0 || g.Pad < 0 {
		panic(fmt.Sprintf("tensor: invalid conv geometry %+v", g))
	}
	if g.OutH() <= 0 || g.OutW() <= 0 {
		panic(fmt.Sprintf("tensor: conv geometry %+v yields empty output", g))
	}
}

// Im2ColBatch lowers every row of x (batch, InC*InH*InW) into one column
// matrix of shape (batch·OutH·OutW, InC*K*K) — sample i occupies the row
// block [i·OutH·OutW, (i+1)·OutH·OutW). One whole-batch buffer turns a
// convolution layer call into a single matrix product instead of one
// small GEMM per image.
func Im2ColBatch(g ConvGeom, x, cols *Tensor) {
	g.Validate()
	if x.Cols() != g.InC*g.InH*g.InW {
		panic(fmt.Sprintf("tensor: Im2ColBatch input width %d, want %d", x.Cols(), g.InC*g.InH*g.InW))
	}
	batch := x.Rows()
	ohw := g.OutH() * g.OutW()
	patch := g.InC * g.K * g.K
	if cols.Rows() != batch*ohw || cols.Cols() != patch {
		panic(fmt.Sprintf("tensor: Im2ColBatch cols shape %v, want (%d,%d)", cols.Shape, batch*ohw, patch))
	}
	block := ohw * patch
	for i := 0; i < batch; i++ {
		im2colCoreG(g, x.Row(i), cols.Data[i*block:(i+1)*block])
	}
}

// Col2ImBatch accumulates a whole-batch column-matrix gradient (the
// Im2ColBatch layout) into per-sample image gradients: row i of imgs
// receives the adjoint of sample i's row block. imgs is accumulated
// into, not zeroed.
func Col2ImBatch(g ConvGeom, cols, imgs *Tensor) {
	g.Validate()
	if imgs.Cols() != g.InC*g.InH*g.InW {
		panic(fmt.Sprintf("tensor: Col2ImBatch image width %d, want %d", imgs.Cols(), g.InC*g.InH*g.InW))
	}
	batch := imgs.Rows()
	ohw := g.OutH() * g.OutW()
	patch := g.InC * g.K * g.K
	if cols.Rows() != batch*ohw || cols.Cols() != patch {
		panic(fmt.Sprintf("tensor: Col2ImBatch cols shape %v, want (%d,%d)", cols.Shape, batch*ohw, patch))
	}
	block := ohw * patch
	for i := 0; i < batch; i++ {
		col2imCoreG(g, cols.Data[i*block:(i+1)*block], imgs.Row(i))
	}
}
