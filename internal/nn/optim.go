package nn

import (
	"fmt"
	"math"

	"feddrl/internal/tensor"
)

// SGD is stochastic gradient descent with the optional FedProx proximal
// term. The paper uses plain SGD with lr = 0.01 as the local solver
// (§4.1.2); FedProx clients additionally set ProxMu and ProxRef to pull
// iterates toward the round's global model (μ‖w−w^t‖²/2, Li et al.
// 2020, μ = 0.01 in §4.1.2).
type SGD struct {
	LR float64

	// ProxMu and ProxRef implement the FedProx proximal term: the
	// gradient gains ProxMu·(w − ProxRef). ProxRef is a flat parameter
	// vector aligned with Network.ParamVector; nil disables the term.
	ProxMu  float64
	ProxRef []float64
}

// NewSGD returns a plain SGD optimizer with the given learning rate.
func NewSGD(lr float64) *SGD {
	if !(lr > 0 && lr <= math.MaxFloat64) {
		panic(fmt.Sprintf("nn: SGD learning rate %v must be positive and finite", lr))
	}
	return &SGD{LR: lr}
}

// Step applies one update to the network's parameters from its
// accumulated gradients, then leaves the gradients untouched (callers
// usually follow with Network.ZeroGrads).
func (o *SGD) Step(n *Network) {
	params, grads := n.Params(), n.Grads()
	if o.ProxRef != nil && len(o.ProxRef) != n.NumParams() {
		panic(fmt.Sprintf("nn: SGD proximal reference length %d, want %d", len(o.ProxRef), n.NumParams()))
	}
	if o.ProxRef == nil || o.ProxMu == 0 {
		// Plain SGD (the paper's local solver) is one axpy per parameter:
		// p ← p + (−lr)·g. IEEE negation of a product is an exact sign
		// flip and a−b ≡ a+(−b), so this is bit-identical to the scalar
		// p −= lr·g loop while running on the SIMD kernels.
		for i, p := range params {
			tensor.Axpy(-o.LR, grads[i].Data, p.Data)
		}
		return
	}
	off := 0
	for i, p := range params {
		g := grads[i]
		for j := range p.Data {
			gj := g.Data[j] + o.ProxMu*(p.Data[j]-o.ProxRef[off+j])
			p.Data[j] -= o.LR * gj
		}
		off += p.Len()
	}
}

// Adam is the Adam optimizer used for the DRL policy and value networks
// (learning rates 1e-4 and 1e-3, Table 1).
type Adam struct {
	LR      float64
	Beta1   float64
	Beta2   float64
	Epsilon float64

	// MaxGradNorm, if positive, clips the global gradient norm before the
	// update — a stability guard for early DDPG training when TD targets
	// are noisy.
	MaxGradNorm float64

	t    int
	m, v [][]float64
}

// NewAdam returns an Adam optimizer with the conventional
// β1=0.9, β2=0.999, ε=1e-8 defaults.
func NewAdam(lr float64) *Adam {
	if !(lr > 0 && lr <= math.MaxFloat64) {
		panic(fmt.Sprintf("nn: Adam learning rate %v must be positive and finite", lr))
	}
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Epsilon: 1e-8}
}

// Step applies one Adam update to the network's parameters, one
// tensor.AdamUpdate per parameter tensor. The clipping norm's sum of
// squares runs in one sequential chain over every gradient.
func (o *Adam) Step(n *Network) {
	params, grads := n.Params(), n.Grads()
	if o.m == nil {
		o.m = make([][]float64, len(params))
		o.v = make([][]float64, len(params))
		for i, p := range params {
			o.m[i] = make([]float64, p.Len())
			o.v[i] = make([]float64, p.Len())
		}
	}
	scale := 1.0
	if o.MaxGradNorm > 0 {
		// One sequential chain; float64(v*v) rounds the square before
		// the add, so no GOARCH fuses the pair (tensor's E(a*b) idiom).
		sq := 0.0
		for _, g := range grads {
			for _, v := range g.Data {
				sq += float64(v * v)
			}
		}
		norm := math.Sqrt(sq)
		if norm > o.MaxGradNorm {
			scale = o.MaxGradNorm / norm
		}
	}
	o.t++
	c := tensor.AdamCoeffs{
		Scale: scale,
		Beta1: o.Beta1, OneMinusBeta1: 1 - o.Beta1,
		Beta2: o.Beta2, OneMinusBeta2: 1 - o.Beta2,
		BC1: 1 - math.Pow(o.Beta1, float64(o.t)),
		BC2: 1 - math.Pow(o.Beta2, float64(o.t)),
		LR:  o.LR, Eps: o.Epsilon,
	}
	for i, p := range params {
		tensor.AdamUpdate(p.Data, grads[i].Data, o.m[i], o.v[i], c)
	}
}
