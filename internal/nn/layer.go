// Package nn is a from-scratch neural-network library: the substrate the
// FedDRL reproduction trains with, replacing the paper's PyTorch 1.8.1.
// It provides the layers needed for the paper's client models (the simple
// CNN for MNIST/Fashion-MNIST and a scaled VGG for CIFAR-100, §4.1.2) and
// for the DRL agent's policy and value networks (3 fully connected layers
// of 256 units with LeakyReLU, Table 1): dense and convolutional layers,
// pooling, activations, softmax cross-entropy and MSE losses, and SGD
// (with the FedProx proximal term) and Adam optimizers.
//
// Gradients are computed by hand-derived backpropagation; every layer's
// backward pass is validated against central finite differences in the
// tests. Layers are stateful across a forward/backward pair (they cache
// activations) and are not safe for concurrent use; federated clients
// therefore each own their model instance.
package nn

import (
	"fmt"
	"math"

	"feddrl/internal/rng"
	"feddrl/internal/tensor"
)

// Layer is one differentiable stage of a Network. Its two passes draw
// their outputs and temporaries from arena slots keyed by id, the
// layer's index in its Network (see Scratch); a nil arena allocates
// fresh buffers instead.
type Layer interface {
	// ForwardScratch consumes a (batch, features) activation and returns
	// the next activation. train reports whether the pass is part of
	// training; no layer reads it.
	ForwardScratch(sc *Scratch, id int, x *tensor.Tensor, train bool) *tensor.Tensor
	// BackwardScratch consumes dLoss/dOutput of the last forward pass.
	// With ParamGrads in want it accumulates the parameter gradients
	// (retrieved via Grads, cleared via Network.ZeroGrads); without, it
	// computes none and leaves them as they are. With InputGrad it
	// returns dLoss/dInput; without, it computes no input gradient,
	// draws no slot for one and returns nil.
	BackwardScratch(sc *Scratch, id int, grad *tensor.Tensor, want Backprop) *tensor.Tensor
	// Params returns the layer's parameter tensors (possibly empty).
	Params() []*tensor.Tensor
	// Grads returns the gradient tensors, aligned with Params.
	Grads() []*tensor.Tensor
}

// Backprop selects what a layer's backward pass computes.
type Backprop uint8

const (
	// ParamGrads accumulates the layer's parameter gradients.
	ParamGrads Backprop = 1 << iota
	// InputGrad returns the gradient with respect to the layer's input.
	InputGrad
)

// Dense is a fully connected layer: y = x·W + b.
type Dense struct {
	In, Out int
	W, B    *tensor.Tensor
	dW, dB  *tensor.Tensor

	lastX *tensor.Tensor
}

// NewDense returns a Dense layer with He-normal initialized weights
// (suited to the ReLU-family activations used throughout the paper) and
// zero biases.
func NewDense(r *rng.RNG, in, out int) *Dense {
	if in <= 0 || out <= 0 {
		panic(fmt.Sprintf("nn: Dense with non-positive dims (%d,%d)", in, out))
	}
	d := &Dense{
		In: in, Out: out,
		W:  tensor.New(in, out),
		B:  tensor.New(1, out),
		dW: tensor.New(in, out),
		dB: tensor.New(1, out),
	}
	std := math.Sqrt(2.0 / float64(in))
	for i := range d.W.Data {
		d.W.Data[i] = r.Normal(0, std)
	}
	return d
}

// ForwardScratch computes y = x·W + b for a (batch, In) input.
func (d *Dense) ForwardScratch(sc *Scratch, id int, x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Cols() != d.In {
		panic(fmt.Sprintf("nn: Dense.ForwardScratch input width %d, want %d", x.Cols(), d.In))
	}
	d.lastX = x
	out := sc.tensor2D(id, 0, x.Rows(), d.Out)
	tensor.MatMulInto(out, x, d.W)
	for i := 0; i < out.Rows(); i++ {
		tensor.Add(d.B.Data, out.Row(i))
	}
	return out
}

// BackwardScratch accumulates dW += xᵀ·g and dB += Σ_batch g under
// ParamGrads, and returns dx = g·Wᵀ under InputGrad.
func (d *Dense) BackwardScratch(sc *Scratch, id int, grad *tensor.Tensor, want Backprop) *tensor.Tensor {
	if d.lastX == nil {
		panic("nn: Dense.BackwardScratch before ForwardScratch")
	}
	if grad.Rows() != d.lastX.Rows() || grad.Cols() != d.Out {
		panic(fmt.Sprintf("nn: Dense.BackwardScratch grad shape %v", grad.Shape))
	}
	if want&ParamGrads != 0 {
		dW := sc.tensor2D(id, 1, d.In, d.Out)
		tensor.MatMulATInto(dW, d.lastX, grad)
		d.dW.AddInPlace(dW)
		for i := 0; i < grad.Rows(); i++ {
			tensor.Add(grad.Row(i), d.dB.Data)
		}
	}
	if want&InputGrad == 0 {
		return nil
	}
	dx := sc.tensor2D(id, 2, grad.Rows(), d.In)
	tensor.MatMulBTInto(dx, grad, d.W)
	return dx
}

// Params returns [W, B].
func (d *Dense) Params() []*tensor.Tensor { return []*tensor.Tensor{d.W, d.B} }

// Grads returns [dW, dB].
func (d *Dense) Grads() []*tensor.Tensor { return []*tensor.Tensor{d.dW, d.dB} }

// ReLU is the rectified linear activation. Like LeakyReLU it caches the
// forward input and re-derives the pass-through mask in Backward from
// the sign of x via the vectorized kernels (tensor.ReLUForward/
// ReLUBackward), instead of materializing a []bool mask.
type ReLU struct{ lastX *tensor.Tensor }

// NewReLU returns a ReLU activation layer.
func NewReLU() *ReLU { return &ReLU{} }

// ForwardScratch applies max(0, x) elementwise.
func (l *ReLU) ForwardScratch(sc *Scratch, id int, x *tensor.Tensor, train bool) *tensor.Tensor {
	l.lastX = x
	out := sc.tensor2D(id, 0, x.Rows(), x.Cols())
	tensor.ReLUForward(x.Data, out.Data)
	return out
}

// BackwardScratch zeroes gradients where the input was non-positive.
func (l *ReLU) BackwardScratch(sc *Scratch, id int, grad *tensor.Tensor, want Backprop) *tensor.Tensor {
	if l.lastX == nil || len(l.lastX.Data) != len(grad.Data) {
		panic("nn: ReLU.BackwardScratch shape mismatch with ForwardScratch")
	}
	if want&InputGrad == 0 {
		return nil
	}
	out := sc.tensor2D(id, 1, grad.Rows(), grad.Cols())
	tensor.ReLUBackward(l.lastX.Data, grad.Data, out.Data)
	return out
}

// Params returns no parameters.
func (l *ReLU) Params() []*tensor.Tensor { return nil }

// Grads returns no gradients.
func (l *ReLU) Grads() []*tensor.Tensor { return nil }

// LeakyReLU is the leaky rectified linear activation used by the paper's
// policy and value networks (Fig. 3c).
type LeakyReLU struct {
	Alpha float64
	lastX *tensor.Tensor
}

// NewLeakyReLU returns a LeakyReLU with the given negative slope. The
// conventional default (and the one used for the DRL networks) is 0.01.
func NewLeakyReLU(alpha float64) *LeakyReLU {
	if !(0 <= alpha && alpha < 1) {
		panic(fmt.Sprintf("nn: LeakyReLU alpha %v out of [0,1)", alpha))
	}
	return &LeakyReLU{Alpha: alpha}
}

// ForwardScratch applies x>0 ? x : alpha*x elementwise.
func (l *LeakyReLU) ForwardScratch(sc *Scratch, id int, x *tensor.Tensor, train bool) *tensor.Tensor {
	l.lastX = x
	out := sc.tensor2D(id, 0, x.Rows(), x.Cols())
	tensor.LeakyReLUForward(l.Alpha, x.Data, out.Data)
	return out
}

// BackwardScratch scales gradients by alpha where the input was
// negative.
func (l *LeakyReLU) BackwardScratch(sc *Scratch, id int, grad *tensor.Tensor, want Backprop) *tensor.Tensor {
	if l.lastX == nil || len(l.lastX.Data) != len(grad.Data) {
		panic("nn: LeakyReLU.BackwardScratch shape mismatch with ForwardScratch")
	}
	if want&InputGrad == 0 {
		return nil
	}
	out := sc.tensor2D(id, 1, grad.Rows(), grad.Cols())
	tensor.LeakyReLUBackward(l.Alpha, l.lastX.Data, grad.Data, out.Data)
	return out
}

// Params returns no parameters.
func (l *LeakyReLU) Params() []*tensor.Tensor { return nil }

// Grads returns no gradients.
func (l *LeakyReLU) Grads() []*tensor.Tensor { return nil }
