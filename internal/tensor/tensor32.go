package tensor

import "fmt"

// Tensor32 is a dense, row-major float32 matrix: the operand type of
// the float32 blocked GEMM (blocked32.go). No training or federated
// run reaches it — clients train in float64 at either precision and
// f32 mode narrows only the federated state (precision32.go) — but the
// GEMM obeys the same determinism contract as its float64 twin, over
// the same generic core (generic.go): one rounding per multiply, one
// per add, never fused, each output element on a single ascending-k
// chain — bit-identical across backends and worker counts.
type Tensor32 struct {
	Shape []int
	Data  []float32
}

// New32 returns a zero float32 tensor with the given shape. Every
// dimension must be positive.
func New32(shape ...int) *Tensor32 {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic(fmt.Sprintf("tensor: non-positive dimension %d in shape %v", d, shape))
		}
		n *= d
	}
	return &Tensor32{Shape: append([]int(nil), shape...), Data: make([]float32, n)}
}

// Rows returns the number of rows of a 2-D tensor.
func (t *Tensor32) Rows() int { t.want2D(); return t.Shape[0] }

// Cols returns the number of columns of a 2-D tensor.
func (t *Tensor32) Cols() int { t.want2D(); return t.Shape[1] }

func (t *Tensor32) want2D() {
	if len(t.Shape) != 2 {
		panic(fmt.Sprintf("tensor: expected 2-D tensor, have shape %v", t.Shape))
	}
}

// MatMul32Into computes dst ← a·b. dst must be m×n and distinct from a
// and b.
func MatMul32Into(dst, a, b *Tensor32) {
	m, ka := a.Rows(), a.Cols()
	kb, n := b.Rows(), b.Cols()
	if ka != kb {
		panic(fmt.Sprintf("tensor: MatMul32 inner dimension mismatch %d vs %d", ka, kb))
	}
	if dst.Rows() != m || dst.Cols() != n {
		panic(fmt.Sprintf("tensor: MatMul32Into dst shape %v, want (%d,%d)", dst.Shape, m, n))
	}
	if dst == a || dst == b {
		panic("tensor: MatMul32Into dst aliases an input")
	}
	checkLen("MatMul32Into", "dst", dst.Shape, dst.Data)
	checkLen("MatMul32Into", "a", a.Shape, a.Data)
	checkLen("MatMul32Into", "b", b.Shape, b.Data)
	gemmInto32(dst, a, b, gemmNN)
}

// MatMulNaive32Into computes dst ← a·b with the unblocked reference
// triple loop — the kernel the blocked f32 path is bit-identical to.
func MatMulNaive32Into(dst, a, b *Tensor32) {
	m, ka := a.Rows(), a.Cols()
	kb, n := b.Rows(), b.Cols()
	if ka != kb {
		panic(fmt.Sprintf("tensor: MatMul32 inner dimension mismatch %d vs %d", ka, kb))
	}
	if dst.Rows() != m || dst.Cols() != n {
		panic(fmt.Sprintf("tensor: MatMulNaive32Into dst shape %v, want (%d,%d)", dst.Shape, m, n))
	}
	if dst == a || dst == b {
		panic("tensor: MatMulNaive32Into dst aliases an input")
	}
	checkLen("MatMulNaive32Into", "dst", dst.Shape, dst.Data)
	checkLen("MatMulNaive32Into", "a", a.Shape, a.Data)
	checkLen("MatMulNaive32Into", "b", b.Shape, b.Data)
	gemmNaive32(dst, a, b, gemmNN)
}

// MatMulAT32Into computes dst ← aᵀ·b for a (m×k), b (m×n), dst (k×n).
func MatMulAT32Into(dst, a, b *Tensor32) {
	m, k := a.Rows(), a.Cols()
	mb, n := b.Rows(), b.Cols()
	if m != mb {
		panic(fmt.Sprintf("tensor: MatMulAT32 outer dimension mismatch %d vs %d", m, mb))
	}
	if dst.Rows() != k || dst.Cols() != n {
		panic(fmt.Sprintf("tensor: MatMulAT32Into dst shape %v, want (%d,%d)", dst.Shape, k, n))
	}
	if dst == a || dst == b {
		panic("tensor: MatMulAT32Into dst aliases an input")
	}
	checkLen("MatMulAT32Into", "dst", dst.Shape, dst.Data)
	checkLen("MatMulAT32Into", "a", a.Shape, a.Data)
	checkLen("MatMulAT32Into", "b", b.Shape, b.Data)
	gemmInto32(dst, a, b, gemmAT)
}

// MatMulBT32Into computes dst ← a·bᵀ for a (m×k), b (n×k), dst (m×n).
func MatMulBT32Into(dst, a, b *Tensor32) {
	m, k := a.Rows(), a.Cols()
	n, kb := b.Rows(), b.Cols()
	if k != kb {
		panic(fmt.Sprintf("tensor: MatMulBT32 inner dimension mismatch %d vs %d", k, kb))
	}
	if dst.Rows() != m || dst.Cols() != n {
		panic(fmt.Sprintf("tensor: MatMulBT32Into dst shape %v, want (%d,%d)", dst.Shape, m, n))
	}
	if dst == a || dst == b {
		panic("tensor: MatMulBT32Into dst aliases an input")
	}
	checkLen("MatMulBT32Into", "dst", dst.Shape, dst.Data)
	checkLen("MatMulBT32Into", "a", a.Shape, a.Data)
	checkLen("MatMulBT32Into", "b", b.Shape, b.Data)
	gemmInto32(dst, a, b, gemmBT)
}
