package nn

import (
	"fmt"

	"feddrl/internal/tensor"
)

// Network is a sequential stack of layers with flat parameter-vector
// access, the representation federated aggregation operates on: the FL
// server exchanges []float64 weight vectors with clients (Eq. 1 / Eq. 4
// of the paper) and the DRL agent's soft target updates blend them.
type Network struct {
	layers []Layer

	// params/grads are cached on first access: layers never change their
	// parameter tensors after construction, and per-step callers
	// (ZeroGrads, optimizer steps) must not allocate.
	params []*tensor.Tensor
	grads  []*tensor.Tensor
}

// NewNetwork builds a sequential network from the given layers.
func NewNetwork(layers ...Layer) *Network {
	if len(layers) == 0 {
		panic("nn: NewNetwork with no layers")
	}
	return &Network{layers: layers}
}

// Forward runs all layers in order with fresh buffers (a nil arena).
func (n *Network) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	return n.ForwardScratch(nil, x, train)
}

// ForwardScratch runs all layers in order, drawing activation buffers
// from the arena.
func (n *Network) ForwardScratch(sc *Scratch, x *tensor.Tensor, train bool) *tensor.Tensor {
	for i, l := range n.layers {
		x = l.ForwardScratch(sc, i, x, train)
	}
	return x
}

// BackwardScratch runs all layers in reverse, drawing gradient buffers
// from the arena, accumulates every parameter gradient and returns the
// input gradient.
func (n *Network) BackwardScratch(sc *Scratch, grad *tensor.Tensor) *tensor.Tensor {
	return n.backward(sc, grad, ParamGrads|InputGrad, ParamGrads|InputGrad)
}

// BackwardParams is BackwardScratch for a caller that reads only the
// parameter gradients: layer 0 computes no input gradient. Every
// gradient it does compute is bit-identical to BackwardScratch's.
func (n *Network) BackwardParams(sc *Scratch, grad *tensor.Tensor) {
	n.backward(sc, grad, ParamGrads|InputGrad, ParamGrads)
}

// BackwardInput is BackwardScratch for a caller that reads only the
// input gradient: no layer computes or accumulates a parameter
// gradient, so Grads keep their values. The input gradient is
// bit-identical to BackwardScratch's.
func (n *Network) BackwardInput(sc *Scratch, grad *tensor.Tensor) *tensor.Tensor {
	return n.backward(sc, grad, InputGrad, InputGrad)
}

// backward runs all layers in reverse, layer 0 with want0 and every
// other layer with want: each later layer's input gradient feeds the
// one below, so only layer 0's is the caller's to drop.
func (n *Network) backward(sc *Scratch, grad *tensor.Tensor, want, want0 Backprop) *tensor.Tensor {
	for i := len(n.layers) - 1; i >= 0; i-- {
		w := want
		if i == 0 {
			w = want0
		}
		grad = n.layers[i].BackwardScratch(sc, i, grad, w)
	}
	return grad
}

// Params returns all parameter tensors in layer order. The slice is
// cached and shared; callers must not modify it.
func (n *Network) Params() []*tensor.Tensor {
	if n.params == nil {
		for _, l := range n.layers {
			n.params = append(n.params, l.Params()...)
		}
	}
	return n.params
}

// Grads returns all gradient tensors, aligned with Params. The slice is
// cached and shared; callers must not modify it.
func (n *Network) Grads() []*tensor.Tensor {
	if n.grads == nil {
		for _, l := range n.layers {
			n.grads = append(n.grads, l.Grads()...)
		}
	}
	return n.grads
}

// ZeroGrads clears all accumulated gradients.
func (n *Network) ZeroGrads() {
	for _, g := range n.Grads() {
		g.Zero()
	}
}

// NumParams returns the total number of scalar parameters.
func (n *Network) NumParams() int {
	total := 0
	for _, p := range n.Params() {
		total += p.Len()
	}
	return total
}

// ParamVector returns a copy of all parameters flattened into one vector,
// in deterministic layer order. This is the representation exchanged
// between FL clients and the server.
func (n *Network) ParamVector() []float64 {
	out := make([]float64, 0, n.NumParams())
	for _, p := range n.Params() {
		out = append(out, p.Data...)
	}
	return out
}

// SetParamVector loads a flat parameter vector produced by ParamVector on
// a network of identical architecture.
func (n *Network) SetParamVector(v []float64) {
	want := n.NumParams()
	if len(v) != want {
		panic(fmt.Sprintf("nn: SetParamVector length %d, want %d", len(v), want))
	}
	off := 0
	for _, p := range n.Params() {
		copy(p.Data, v[off:off+p.Len()])
		off += p.Len()
	}
}

// ParamVector32 returns all parameters flattened into one float32
// vector, aligned with ParamVector: each weight is quantized with one
// round-to-nearest-even conversion. This is the representation f32-mode
// FL clients upload — half the bytes of the float64 vector.
func (n *Network) ParamVector32() []float32 {
	out := make([]float32, 0, n.NumParams())
	for _, p := range n.Params() {
		for _, v := range p.Data {
			out = append(out, float32(v))
		}
	}
	return out
}

// SoftUpdateFrom blends the parameters of src into n:
// θ_n ← (1−rho)·θ_n + rho·θ_src. This is the ρ-soft target-network update
// of Algorithm 1 lines 8–9. Architectures must match.
func (n *Network) SoftUpdateFrom(src *Network, rho float64) {
	sp := n.matchedParams(src, "SoftUpdateFrom")
	for i, p := range n.Params() {
		// (1−rho)·θ_n then + rho·θ_src: the roundings of the scalar
		// (1-rho)*p + rho*s, on the SIMD kernels.
		tensor.Scale(1-rho, p.Data)
		tensor.Axpy(rho, sp[i].Data, p.Data)
	}
}

// CopyFrom copies all parameters of src into n bit for bit, whatever n
// held before. Architectures must match.
func (n *Network) CopyFrom(src *Network) {
	sp := n.matchedParams(src, "CopyFrom")
	for i, p := range n.Params() {
		copy(p.Data, sp[i].Data)
	}
}

// matchedParams returns src's parameters once each has the length of
// n's at the same position; it panics, naming op, when they differ.
func (n *Network) matchedParams(src *Network, op string) []*tensor.Tensor {
	np, sp := n.Params(), src.Params()
	if len(np) != len(sp) {
		panic("nn: " + op + " architecture mismatch")
	}
	for i, p := range np {
		if p.Len() != sp[i].Len() {
			panic("nn: " + op + " parameter shape mismatch")
		}
	}
	return sp
}
