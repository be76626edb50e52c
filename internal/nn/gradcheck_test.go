package nn

import (
	"math"
	"testing"

	"feddrl/internal/rng"
	"feddrl/internal/tensor"
)

// lossOf runs a fresh forward pass and returns the scalar loss. Used by
// the central-difference checks below.
func ceLossOf(n *Network, x *tensor.Tensor, labels []int) float64 {
	loss := NewCrossEntropy()
	return loss.Forward(n.Forward(x, true), labels)
}

func mseLossOf(n *Network, x *tensor.Tensor, targets []float64) float64 {
	loss := NewMSE()
	return loss.Forward(n.Forward(x, true), targets)
}

// checkGrads compares the network's accumulated analytic gradients to a
// central finite difference of lossFn over every parameter.
func checkGrads(t *testing.T, n *Network, lossFn func() float64, tol float64) {
	t.Helper()
	const eps = 1e-5
	params := n.Params()
	grads := n.Grads()
	for pi, p := range params {
		for j := range p.Data {
			orig := p.Data[j]
			p.Data[j] = orig + eps
			up := lossFn()
			p.Data[j] = orig - eps
			down := lossFn()
			p.Data[j] = orig
			numeric := (up - down) / (2 * eps)
			analytic := grads[pi].Data[j]
			if math.Abs(numeric-analytic) > tol*(1+math.Abs(numeric)) {
				t.Fatalf("param %d elem %d: analytic %.8f vs numeric %.8f", pi, j, analytic, numeric)
			}
		}
	}
}

// Tanh is the hyperbolic tangent activation. No model of the
// reproduction uses it; the gradient checks do.
type Tanh struct{ lastY *tensor.Tensor }

// NewTanh returns a Tanh activation layer.
func NewTanh() *Tanh { return &Tanh{} }

// ForwardScratch applies tanh elementwise.
func (l *Tanh) ForwardScratch(sc *Scratch, id int, x *tensor.Tensor, train bool) *tensor.Tensor {
	out := sc.tensor2D(id, 0, x.Rows(), x.Cols())
	for i, v := range x.Data {
		out.Data[i] = math.Tanh(v)
	}
	l.lastY = out
	return out
}

// BackwardScratch multiplies by 1 - tanh² of the input.
func (l *Tanh) BackwardScratch(sc *Scratch, id int, grad *tensor.Tensor, want Backprop) *tensor.Tensor {
	if l.lastY == nil || len(l.lastY.Data) != len(grad.Data) {
		panic("nn: Tanh.BackwardScratch shape mismatch with ForwardScratch")
	}
	if want&InputGrad == 0 {
		return nil
	}
	out := sc.tensor2D(id, 1, grad.Rows(), grad.Cols())
	for i, y := range l.lastY.Data {
		out.Data[i] = grad.Data[i] * (1 - y*y)
	}
	return out
}

// Params returns no parameters.
func (l *Tanh) Params() []*tensor.Tensor { return nil }

// Grads returns no gradients.
func (l *Tanh) Grads() []*tensor.Tensor { return nil }

func randInput(r *rng.RNG, rows, cols int) *tensor.Tensor {
	x := tensor.New(rows, cols)
	for i := range x.Data {
		x.Data[i] = r.Normal(0, 1)
	}
	return x
}

func TestGradCheckDenseCE(t *testing.T) {
	r := rng.New(1)
	n := NewNetwork(NewDense(r, 4, 3))
	x := randInput(r, 5, 4)
	labels := []int{0, 1, 2, 1, 0}
	loss := NewCrossEntropy()
	loss.Forward(n.Forward(x, true), labels)
	n.ZeroGrads()
	n.Backward(loss.Backward())
	checkGrads(t, n, func() float64 { return ceLossOf(n, x, labels) }, 1e-5)
}

func TestGradCheckMLPReLU(t *testing.T) {
	r := rng.New(2)
	n := NewMLP(r, 5, []int{7, 6}, 3)
	x := randInput(r, 4, 5)
	labels := []int{2, 0, 1, 2}
	loss := NewCrossEntropy()
	loss.Forward(n.Forward(x, true), labels)
	n.ZeroGrads()
	n.Backward(loss.Backward())
	// ReLU kinks make the check slightly less sharp.
	checkGrads(t, n, func() float64 { return ceLossOf(n, x, labels) }, 5e-4)
}

func TestGradCheckLeakyReLUTanhMSE(t *testing.T) {
	r := rng.New(3)
	n := NewNetwork(
		NewDense(r, 4, 6), NewLeakyReLU(0.01),
		NewDense(r, 6, 5), NewTanh(),
		NewDense(r, 5, 1),
	)
	x := randInput(r, 3, 4)
	targets := []float64{0.5, -1.2, 2.0}
	loss := NewMSE()
	loss.Forward(n.Forward(x, true), targets)
	n.ZeroGrads()
	n.Backward(loss.Backward())
	checkGrads(t, n, func() float64 { return mseLossOf(n, x, targets) }, 5e-4)
}

func TestGradCheckConv2D(t *testing.T) {
	r := rng.New(4)
	g := tensor.ConvGeom{InC: 2, InH: 5, InW: 5, K: 3, Stride: 1, Pad: 1}
	conv := NewConv2D(r, g, 3)
	n := NewNetwork(conv, NewReLU(), NewDense(r, conv.OutLen(), 2))
	x := randInput(r, 2, g.InC*g.InH*g.InW)
	labels := []int{0, 1}
	loss := NewCrossEntropy()
	loss.Forward(n.Forward(x, true), labels)
	n.ZeroGrads()
	n.Backward(loss.Backward())
	checkGrads(t, n, func() float64 { return ceLossOf(n, x, labels) }, 5e-4)
}

func TestGradCheckConvPoolStack(t *testing.T) {
	r := rng.New(5)
	g := tensor.ConvGeom{InC: 1, InH: 4, InW: 4, K: 3, Stride: 1, Pad: 1}
	conv := NewConv2D(r, g, 2)
	pool := NewMaxPool2D(2, 4, 4, 2, 2)
	n := NewNetwork(conv, NewReLU(), pool, NewDense(r, pool.OutLen(), 2))
	x := randInput(r, 3, 16)
	labels := []int{1, 0, 1}
	loss := NewCrossEntropy()
	loss.Forward(n.Forward(x, true), labels)
	n.ZeroGrads()
	n.Backward(loss.Backward())
	// Max-pool argmax ties/switches under perturbation add noise.
	checkGrads(t, n, func() float64 { return ceLossOf(n, x, labels) }, 2e-3)
}

func TestGradCheckInputGradient(t *testing.T) {
	// The gradient returned by Network.Backward w.r.t. the input must
	// also match finite differences (needed nowhere downstream but a
	// strong correctness signal for chained Backwards).
	r := rng.New(6)
	n := NewNetwork(NewDense(r, 3, 4), NewTanh(), NewDense(r, 4, 2))
	x := randInput(r, 2, 3)
	labels := []int{0, 1}
	loss := NewCrossEntropy()
	loss.Forward(n.Forward(x, true), labels)
	n.ZeroGrads()
	dx := n.Backward(loss.Backward())
	const eps = 1e-5
	for i := range x.Data {
		orig := x.Data[i]
		x.Data[i] = orig + eps
		up := ceLossOf(n, x, labels)
		x.Data[i] = orig - eps
		down := ceLossOf(n, x, labels)
		x.Data[i] = orig
		numeric := (up - down) / (2 * eps)
		if math.Abs(numeric-dx.Data[i]) > 1e-4*(1+math.Abs(numeric)) {
			t.Fatalf("input grad elem %d: analytic %.8f vs numeric %.8f", i, dx.Data[i], numeric)
		}
	}
}

func TestGradAccumulation(t *testing.T) {
	// Two Backward passes without ZeroGrads must sum gradients.
	r := rng.New(7)
	n := NewNetwork(NewDense(r, 3, 2))
	x := randInput(r, 2, 3)
	labels := []int{0, 1}
	loss := NewCrossEntropy()
	flat := func() []float64 {
		var out []float64
		for _, g := range n.Grads() {
			out = append(out, g.Data...)
		}
		return out
	}

	loss.Forward(n.Forward(x, true), labels)
	n.ZeroGrads()
	n.Backward(loss.Backward())
	once := flat()

	loss.Forward(n.Forward(x, true), labels)
	n.Backward(loss.Backward())
	twice := flat()

	for i := range once {
		if math.Abs(twice[i]-2*once[i]) > 1e-12 {
			t.Fatalf("gradient accumulation broken at %d: %v vs 2*%v", i, twice[i], once[i])
		}
	}
}
