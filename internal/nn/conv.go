package nn

import (
	"fmt"
	"math"

	"feddrl/internal/rng"
	"feddrl/internal/tensor"
)

// Conv2D is a 2-D convolution over CHW-flattened inputs. A batch row of
// the input tensor is one image of length InC*InH*InW; a batch row of the
// output is OutC*OutH*OutW. The whole batch is lowered into ONE
// (batch·OutH·OutW, InC·K·K) column matrix (tensor.Im2ColBatch), so the
// forward pass and both backward passes are each a single large matrix
// product per layer call instead of one small GEMM per image — the shape
// the blocked kernels are fastest at. The layer lowers through its
// geometry's index plan, built by its first forward pass, so a model
// that is built and never run allocates none.
type Conv2D struct {
	g    tensor.ConvGeom
	plan *tensor.ConvPlan
	OutC int

	// W has shape (InC*K*K, OutC); B has shape (1, OutC).
	W, B   *tensor.Tensor
	dW, dB *tensor.Tensor

	// lastCols is the whole-batch im2col buffer the forward pass caches
	// for the backward pass (arena slot 0 when running with a Scratch).
	lastCols *tensor.Tensor
	lastRows int
}

// NewConv2D returns a convolution layer with He-normal initialization.
func NewConv2D(r *rng.RNG, g tensor.ConvGeom, outC int) *Conv2D {
	g.Validate()
	if outC <= 0 {
		panic("nn: Conv2D with non-positive output channels")
	}
	patch := g.InC * g.K * g.K
	c := &Conv2D{
		g: g, OutC: outC,
		W:  tensor.New(patch, outC),
		B:  tensor.New(1, outC),
		dW: tensor.New(patch, outC),
		dB: tensor.New(1, outC),
	}
	std := math.Sqrt(2.0 / float64(patch))
	for i := range c.W.Data {
		c.W.Data[i] = r.Normal(0, std)
	}
	return c
}

// OutLen returns the flattened output length per sample.
func (c *Conv2D) OutLen() int { return c.OutC * c.g.OutH() * c.g.OutW() }

// InLen returns the flattened input length per sample.
func (c *Conv2D) InLen() int { return c.g.InC * c.g.InH * c.g.InW }

// ForwardScratch convolves each batch row; output rows are
// CHW-flattened. It lowers the whole batch with one im2col and one
// GEMM: res (batch·ohw, OutC) = cols (batch·ohw, patch) · W, then
// scatters res into the CHW-flattened output layout with the bias added.
func (c *Conv2D) ForwardScratch(sc *Scratch, id int, x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Cols() != c.InLen() {
		panic(fmt.Sprintf("nn: Conv2D.ForwardScratch input width %d, want %d", x.Cols(), c.InLen()))
	}
	batch := x.Rows()
	g := c.g
	ohw, patch := g.OutH()*g.OutW(), g.InC*g.K*g.K
	cols := sc.tensor2D(id, 0, batch*ohw, patch)
	out := sc.tensor2D(id, 1, batch, c.OutLen())
	res := sc.tensor2D(id, 2, batch*ohw, c.OutC)
	c.lastCols = cols
	c.lastRows = batch
	if c.plan == nil {
		c.plan = tensor.NewConvPlan(g)
	}
	tensor.Im2ColBatch(c.plan, x, cols)
	tensor.MatMulInto(res, cols, c.W)
	for i := 0; i < batch; i++ {
		outRow := out.Row(i)
		for p := 0; p < ohw; p++ {
			rrow := res.Row(i*ohw + p)
			for ch := 0; ch < c.OutC; ch++ {
				outRow[ch*ohw+p] = rrow[ch] + c.B.Data[ch]
			}
		}
	}
	return out
}

// BackwardScratch accumulates kernel/bias gradients under ParamGrads
// and returns the input gradient, CHW-flattened per batch row, under
// InputGrad. It runs both backward matrix products over the whole batch
// at once: dW += colsᵀ·dRes and dCols = dRes·Wᵀ, with dRes the
// (batch·ohw, OutC) transposition of the incoming CHW gradient. Without
// ParamGrads it skips dW and leaves dB as it is; without InputGrad it
// skips dCols and the col2im scatter.
func (c *Conv2D) BackwardScratch(sc *Scratch, id int, grad *tensor.Tensor, want Backprop) *tensor.Tensor {
	if c.lastRows == 0 {
		panic("nn: Conv2D.BackwardScratch before ForwardScratch")
	}
	if grad.Rows() != c.lastRows || grad.Cols() != c.OutLen() {
		panic(fmt.Sprintf("nn: Conv2D.BackwardScratch grad shape %v", grad.Shape))
	}
	batch := grad.Rows()
	g := c.g
	ohw, patch := g.OutH()*g.OutW(), g.InC*g.K*g.K
	outC := c.OutC
	params := want&ParamGrads != 0
	dRes := sc.tensor2D(id, 4, batch*ohw, outC)
	// Transpose the gradient into dRes and, under ParamGrads, sum dB on
	// the way: dB[ch] adds its rows of dRes in ascending order.
	dB := c.dB.Data[:outC]
	for i := 0; i < batch; i++ {
		gRow := grad.Row(i)
		blk := dRes.Data[i*ohw*outC : (i+1)*ohw*outC]
		for ch := range dB {
			sum := dB[ch]
			for p, v := range gRow[ch*ohw : (ch+1)*ohw] {
				blk[p*outC+ch] = v
				sum += v
			}
			if params {
				dB[ch] = sum
			}
		}
	}
	if params {
		// dW += colsᵀ · dRes over the whole batch in one product.
		dWtmp := sc.tensor2D(id, 5, patch, outC)
		tensor.MatMulATInto(dWtmp, c.lastCols, dRes)
		c.dW.AddInPlace(dWtmp)
	}
	if want&InputGrad == 0 {
		return nil
	}
	// dCols = dRes · Wᵀ, then scatter every sample back to its image.
	dx := sc.tensor2D(id, 3, batch, c.InLen())
	dCols := sc.tensor2D(id, 6, batch*ohw, patch)
	tensor.MatMulBTInto(dCols, dRes, c.W)
	dx.Zero()
	tensor.Col2ImBatch(c.plan, dCols, dx)
	return dx
}

// Params returns [W, B].
func (c *Conv2D) Params() []*tensor.Tensor { return []*tensor.Tensor{c.W, c.B} }

// Grads returns [dW, dB].
func (c *Conv2D) Grads() []*tensor.Tensor { return []*tensor.Tensor{c.dW, c.dB} }

// MaxPool2D is a max-pooling layer over CHW-flattened inputs.
type MaxPool2D struct {
	C, H, W      int
	Size, Stride int

	argmax  []int // flat input index chosen per output element, per batch row
	firsts  []int // flat input index of each window's first element
	lastDim int
}

// NewMaxPool2D returns a max-pooling layer. Size must divide into the
// spatial dims given the stride (no padding).
func NewMaxPool2D(c, h, w, size, stride int) *MaxPool2D {
	if c <= 0 || h <= 0 || w <= 0 || size <= 0 || stride <= 0 {
		panic("nn: MaxPool2D with non-positive geometry")
	}
	if (h-size)%stride != 0 || (w-size)%stride != 0 || h < size || w < size {
		panic(fmt.Sprintf("nn: MaxPool2D geometry (h=%d,w=%d,size=%d,stride=%d) not tileable", h, w, size, stride))
	}
	return &MaxPool2D{C: c, H: h, W: w, Size: size, Stride: stride}
}

// OutH returns the pooled height.
func (m *MaxPool2D) OutH() int { return (m.H-m.Size)/m.Stride + 1 }

// OutW returns the pooled width.
func (m *MaxPool2D) OutW() int { return (m.W-m.Size)/m.Stride + 1 }

// OutLen returns the flattened output length per sample.
func (m *MaxPool2D) OutLen() int { return m.C * m.OutH() * m.OutW() }

// InLen returns the flattened input length per sample.
func (m *MaxPool2D) InLen() int { return m.C * m.H * m.W }

// ForwardScratch computes channelwise max pooling (see poolRow).
func (m *MaxPool2D) ForwardScratch(sc *Scratch, id int, x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Cols() != m.InLen() {
		panic(fmt.Sprintf("nn: MaxPool2D.ForwardScratch input width %d, want %d", x.Cols(), m.InLen()))
	}
	batch, outLen := x.Rows(), m.OutLen()
	if len(m.firsts) != outLen {
		m.firsts = m.firsts[:0]
		for ch := 0; ch < m.C; ch++ {
			for oy := 0; oy < m.OutH(); oy++ {
				for ox := 0; ox < m.OutW(); ox++ {
					m.firsts = append(m.firsts, (ch*m.H+oy*m.Stride)*m.W+ox*m.Stride)
				}
			}
		}
	}
	out := sc.tensor2D(id, 0, batch, outLen)
	need := batch * outLen
	if cap(m.argmax) < need {
		m.argmax = make([]int, need)
	}
	m.argmax = m.argmax[:need]
	m.lastDim = batch
	for i := 0; i < batch; i++ {
		poolRow(x.Row(i), out.Row(i), m.argmax[i*outLen:(i+1)*outLen], m.firsts, m.Size, m.W)
	}
	return out
}

// poolRow max-pools one batch row: window oi starts at in[firsts[oi]]
// and spans size rows of size elements, rows w apart. Each window's
// first element seeds it, so its argmax is always a real input, even
// when nothing in it exceeds −Inf. A later element takes the window
// when it is greater or is the window's first NaN: a NaN propagates as
// it would through the GEMMs. While best is not NaN, that rule is
// !(v <= best).
//
// Every window meets its elements in row-major order, but the windows
// are the inner loop, so their comparison chains are independent. The
// pick has no data-dependent branch: the comparisons become a mask that
// selects the candidate's index and value bits.
func poolRow(in, out []float64, am, firsts []int, size, w int) {
	out, am = out[:len(firsts)], am[:len(firsts)]
	for oi, f := range firsts {
		out[oi], am[oi] = in[f], f
	}
	for dy := 0; dy < size; dy++ {
		for dx := 0; dx < size; dx++ {
			if dy == 0 && dx == 0 {
				continue // the seed
			}
			off := dy*w + dx
			for oi, f := range firsts {
				idx := f + off
				v, best := in[idx], out[oi]
				mask := -(b2i(!(v <= best)) & b2i(best == best))
				am[oi] ^= (am[oi] ^ idx) & mask
				bits := math.Float64bits(best)
				out[oi] = math.Float64frombits(bits ^ (bits^math.Float64bits(v))&uint64(mask))
			}
		}
	}
}

// b2i is 1 for true and 0 for false, without a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// BackwardScratch routes gradients to the argmax positions. The pool
// has no parameters, so without InputGrad it does nothing.
func (m *MaxPool2D) BackwardScratch(sc *Scratch, id int, grad *tensor.Tensor, want Backprop) *tensor.Tensor {
	if m.lastDim == 0 {
		panic("nn: MaxPool2D.BackwardScratch before ForwardScratch")
	}
	if grad.Rows() != m.lastDim || grad.Cols() != m.OutLen() {
		panic(fmt.Sprintf("nn: MaxPool2D.BackwardScratch grad shape %v", grad.Shape))
	}
	if want&InputGrad == 0 {
		return nil
	}
	batch := grad.Rows()
	dx := sc.tensor2D(id, 1, batch, m.InLen())
	dx.Zero()
	for i := 0; i < batch; i++ {
		g := grad.Row(i)
		d := dx.Row(i)
		amRow := m.argmax[i*m.OutLen() : (i+1)*m.OutLen()]
		for oi, idx := range amRow {
			d[idx] += g[oi]
		}
	}
	return dx
}

// Params returns no parameters.
func (m *MaxPool2D) Params() []*tensor.Tensor { return nil }

// Grads returns no gradients.
func (m *MaxPool2D) Grads() []*tensor.Tensor { return nil }
