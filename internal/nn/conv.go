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
// the blocked kernels are fastest at.
type Conv2D struct {
	Geom tensor.ConvGeom
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
		Geom: g, OutC: outC,
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
func (c *Conv2D) OutLen() int { return c.OutC * c.Geom.OutH() * c.Geom.OutW() }

// InLen returns the flattened input length per sample.
func (c *Conv2D) InLen() int { return c.Geom.InC * c.Geom.InH * c.Geom.InW }

// ForwardScratch convolves each batch row; output rows are
// CHW-flattened. It lowers the whole batch with one im2col and one
// GEMM: res (batch·ohw, OutC) = cols (batch·ohw, patch) · W, then
// scatters res into the CHW-flattened output layout with the bias added.
func (c *Conv2D) ForwardScratch(sc *Scratch, id int, x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Cols() != c.InLen() {
		panic(fmt.Sprintf("nn: Conv2D.ForwardScratch input width %d, want %d", x.Cols(), c.InLen()))
	}
	batch := x.Rows()
	ohw := c.Geom.OutH() * c.Geom.OutW()
	patch := c.Geom.InC * c.Geom.K * c.Geom.K
	cols := sc.tensor2D(id, 0, batch*ohw, patch)
	out := sc.tensor2D(id, 1, batch, c.OutLen())
	res := sc.tensor2D(id, 2, batch*ohw, c.OutC)
	c.lastCols = cols
	c.lastRows = batch
	tensor.Im2ColBatch(c.Geom, x, cols)
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

// BackwardScratch accumulates kernel/bias gradients and returns the
// input gradient, CHW-flattened per batch row. It runs both backward
// matrix products over the whole batch at once: dW += colsᵀ·dRes and
// dCols = dRes·Wᵀ, with dRes the (batch·ohw, OutC) transposition of
// the incoming CHW gradient.
func (c *Conv2D) BackwardScratch(sc *Scratch, id int, grad *tensor.Tensor) *tensor.Tensor {
	if c.lastRows == 0 {
		panic("nn: Conv2D.BackwardScratch before ForwardScratch")
	}
	if grad.Rows() != c.lastRows || grad.Cols() != c.OutLen() {
		panic(fmt.Sprintf("nn: Conv2D.BackwardScratch grad shape %v", grad.Shape))
	}
	batch := grad.Rows()
	ohw := c.Geom.OutH() * c.Geom.OutW()
	patch := c.Geom.InC * c.Geom.K * c.Geom.K
	dx := sc.tensor2D(id, 3, batch, c.InLen())
	dRes := sc.tensor2D(id, 4, batch*ohw, c.OutC)
	dWtmp := sc.tensor2D(id, 5, patch, c.OutC)
	dCols := sc.tensor2D(id, 6, batch*ohw, patch)
	for i := 0; i < batch; i++ {
		gRow := grad.Row(i)
		for p := 0; p < ohw; p++ {
			drow := dRes.Row(i*ohw + p)
			for ch := 0; ch < c.OutC; ch++ {
				drow[ch] = gRow[ch*ohw+p]
			}
		}
	}
	// dW += colsᵀ · dRes over the whole batch in one product.
	tensor.MatMulATInto(dWtmp, c.lastCols, dRes)
	c.dW.AddInPlace(dWtmp)
	// dB += Σ_rows dRes (row order matches the old per-sample loop).
	for p := 0; p < batch*ohw; p++ {
		drow := dRes.Row(p)
		for ch, v := range drow {
			c.dB.Data[ch] += v
		}
	}
	// dCols = dRes · Wᵀ, then scatter every sample back to its image.
	tensor.MatMulBTInto(dCols, dRes, c.W)
	dx.Zero()
	tensor.Col2ImBatch(c.Geom, dCols, dx)
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

// ForwardScratch computes channelwise max pooling.
func (m *MaxPool2D) ForwardScratch(sc *Scratch, id int, x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Cols() != m.InLen() {
		panic(fmt.Sprintf("nn: MaxPool2D.ForwardScratch input width %d, want %d", x.Cols(), m.InLen()))
	}
	batch := x.Rows()
	oh, ow := m.OutH(), m.OutW()
	out := sc.tensor2D(id, 0, batch, m.OutLen())
	need := batch * m.OutLen()
	if cap(m.argmax) < need {
		m.argmax = make([]int, need)
	}
	m.argmax = m.argmax[:need]
	m.lastDim = batch
	for i := 0; i < batch; i++ {
		in := x.Row(i)
		o := out.Row(i)
		amRow := m.argmax[i*m.OutLen() : (i+1)*m.OutLen()]
		oi := 0
		for ch := 0; ch < m.C; ch++ {
			chOff := ch * m.H * m.W
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					// Each window starts from its first element, so its
					// argmax is always a real input, even when nothing
					// in it exceeds −Inf. A later element wins when it is
					// greater or is the window's first NaN: a NaN
					// propagates as it would through the GEMMs.
					bestIdx := chOff + oy*m.Stride*m.W + ox*m.Stride
					best := in[bestIdx]
					for dy := 0; dy < m.Size; dy++ {
						y := oy*m.Stride + dy
						for dx := 0; dx < m.Size; dx++ {
							xp := ox*m.Stride + dx
							idx := chOff + y*m.W + xp
							if v := in[idx]; v > best || math.IsNaN(v) && !math.IsNaN(best) {
								best = v
								bestIdx = idx
							}
						}
					}
					o[oi] = best
					amRow[oi] = bestIdx
					oi++
				}
			}
		}
	}
	return out
}

// BackwardScratch routes gradients to the argmax positions.
func (m *MaxPool2D) BackwardScratch(sc *Scratch, id int, grad *tensor.Tensor) *tensor.Tensor {
	if m.lastDim == 0 {
		panic("nn: MaxPool2D.BackwardScratch before ForwardScratch")
	}
	if grad.Rows() != m.lastDim || grad.Cols() != m.OutLen() {
		panic(fmt.Sprintf("nn: MaxPool2D.BackwardScratch grad shape %v", grad.Shape))
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
