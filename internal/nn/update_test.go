package nn

import (
	"math"
	"testing"

	"feddrl/internal/rng"
	"feddrl/internal/tensor"
)

// The agent's update path: Adam steps and soft target updates run on
// the tensor package's SIMD kernels, and the critic pass of a policy
// step computes only its input gradient. Each must match the scalar
// code it replaced on every backend in the fallback chain.

// eachBackend runs f once per backend in the fallback chain and
// restores the active backend afterwards.
func eachBackend(t *testing.T, f func(t *testing.T, bk string)) {
	t.Helper()
	orig := tensor.KernelBackend()
	defer func() {
		if err := tensor.SetBackend(orig); err != nil {
			t.Fatalf("restoring backend %q: %v", orig, err)
		}
	}()
	for _, bk := range tensor.Backends() {
		if err := tensor.SetBackend(bk); err != nil {
			t.Fatalf("SetBackend(%q): %v", bk, err)
		}
		f(t, bk)
	}
}

// fillUpdateInputs fills x with normal deviates at the given spread
// and, one element in five, ±0, a subnormal of either sign, ±Inf or
// NaN.
func fillUpdateInputs(x []float64, std float64, r *rng.RNG) {
	specials := []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, math.Inf(1), math.Inf(-1), math.NaN()}
	for i := range x {
		if r.Intn(5) == 0 {
			x[i] = specials[r.Intn(len(specials))]
		} else {
			x[i] = r.Normal(0, std)
		}
	}
}

// sameUpToNaN fails unless got equals want bit for bit wherever want is
// not NaN, and is NaN wherever want is: where two NaNs meet in an add,
// the payload is not promised (tensor.AdamUpdate).
func sameUpToNaN(t *testing.T, tag string, got, want []float64) {
	t.Helper()
	for i, w := range want {
		g := got[i]
		if math.IsNaN(w) != math.IsNaN(g) || !math.IsNaN(w) && math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%s[%d] = %#x, want %#x", tag, i, math.Float64bits(g), math.Float64bits(w))
		}
	}
}

// scalarAdam is Adam.Step's scalar loop as it ran before the update
// moved to tensor.AdamUpdate, with explicit conversions that round each
// product before its add on every GOARCH.
type scalarAdam struct {
	lr, beta1, beta2, eps, maxGradNorm float64
	t                                  int
	m, v                               [][]float64
}

func (o *scalarAdam) step(params, grads []*tensor.Tensor) {
	if o.m == nil {
		for _, p := range params {
			o.m = append(o.m, make([]float64, p.Len()))
			o.v = append(o.v, make([]float64, p.Len()))
		}
	}
	scale := 1.0
	if o.maxGradNorm > 0 {
		sq := 0.0
		for _, g := range grads {
			for _, v := range g.Data {
				sq += float64(v * v)
			}
		}
		if norm := math.Sqrt(sq); norm > o.maxGradNorm {
			scale = o.maxGradNorm / norm
		}
	}
	o.t++
	bc1 := 1 - math.Pow(o.beta1, float64(o.t))
	bc2 := 1 - math.Pow(o.beta2, float64(o.t))
	for i, p := range params {
		g, mi, vi := grads[i], o.m[i], o.v[i]
		for j := range p.Data {
			gj := g.Data[j] * scale
			mi[j] = float64(o.beta1*mi[j]) + float64((1-o.beta1)*gj)
			vi[j] = float64(o.beta2*vi[j]) + float64(float64((1-o.beta2)*gj)*gj)
			mHat := mi[j] / bc1
			vHat := vi[j] / bc2
			p.Data[j] -= float64(o.lr*mHat) / (math.Sqrt(vHat) + o.eps)
		}
	}
}

// TestAdamStepMatchesScalar runs six Adam steps of a value MLP (the
// agent's critic shape) against the scalar loop on every backend, with
// global-norm clipping on: three steps of large finite gradients, whose
// norm exceeds MaxGradNorm (a clip scale other than 1), then three with
// ±0, subnormals, ±Inf and NaN among the gradients and the parameters.
func TestAdamStepMatchesScalar(t *testing.T) {
	eachBackend(t, func(t *testing.T, bk string) {
		r := rng.New(41)
		net := NewValueMLP(r.Split(), 9, 6, 13)
		ref := NewValueMLP(r.Split(), 9, 6, 13)
		ref.CopyFrom(net)
		opt := NewAdam(1e-3)
		opt.MaxGradNorm = 5
		sc := &scalarAdam{lr: opt.LR, beta1: opt.Beta1, beta2: opt.Beta2, eps: opt.Epsilon, maxGradNorm: opt.MaxGradNorm}
		for step := 0; step < 6; step++ {
			for i, g := range net.Grads() {
				if step < 3 {
					for j := range g.Data {
						g.Data[j] = r.Normal(0, 3)
					}
				} else {
					fillUpdateInputs(g.Data, 3, r)
					if step == 3 {
						fillUpdateInputs(net.Params()[i].Data, 1, r)
						copy(ref.Params()[i].Data, net.Params()[i].Data)
					}
				}
				copy(ref.Grads()[i].Data, g.Data)
			}
			opt.Step(net)
			sc.step(ref.Params(), ref.Grads())
			for i, p := range net.Params() {
				sameUpToNaN(t, bk+" params", p.Data, ref.Params()[i].Data)
				sameUpToNaN(t, bk+" m", opt.m[i], sc.m[i])
				sameUpToNaN(t, bk+" v", opt.v[i], sc.v[i])
			}
		}
	})
}

// TestSoftUpdateMatchesScalar checks SoftUpdateFrom against the scalar
// blend (1−rho)·θ + rho·θ_src on every backend, over parameters holding
// ±0, subnormals, ±Inf and NaN. At rho 1 it is still a blend, not a
// copy (see TestCopyFrom): a non-finite destination gives NaN.
func TestSoftUpdateMatchesScalar(t *testing.T) {
	eachBackend(t, func(t *testing.T, bk string) {
		for _, rho := range []float64{0.02, 0.37, 1} {
			r := rng.New(7)
			dst := NewPolicyMLP(r.Split(), 9, 3, 13)
			src := NewPolicyMLP(r.Split(), 9, 3, 13)
			for i, p := range dst.Params() {
				fillUpdateInputs(p.Data, 1, r)
				fillUpdateInputs(src.Params()[i].Data, 1, r)
			}
			want := dst.ParamVector()
			sv := src.ParamVector()
			for j := range want {
				want[j] = float64((1-rho)*want[j]) + float64(rho*sv[j])
			}
			dst.SoftUpdateFrom(src, rho)
			sameUpToNaN(t, bk+" soft update", dst.ParamVector(), want)
		}
	})
}

// TestBackwardInputMatchesScratch runs the input-only backward pass of
// the agent's critic and of the simple CNN: its input gradient must
// equal BackwardScratch's bit for bit on every backend, and it must
// leave every parameter gradient at zero.
func TestBackwardInputMatchesScratch(t *testing.T) {
	eachBackend(t, func(t *testing.T, bk string) {
		for _, c := range []struct {
			name  string
			build func(r *rng.RNG) *Network
			in    int
		}{
			{"value", func(r *rng.RNG) *Network { return NewValueMLP(r, 48, 32, 64) }, 80},
			{"cnn", func(r *rng.RNG) *Network { return NewSimpleCNN(r, 1, 12, 12, 10) }, 144},
		} {
			full, only := c.build(rng.New(3)), c.build(rng.New(3))
			scFull, scOnly := NewScratch(), NewScratch()
			r := rng.New(5)
			x := tensor.New(30, c.in)
			for i := range x.Data {
				x.Data[i] = r.Normal(0, 1)
			}
			outFull := full.ForwardScratch(scFull, x, true)
			only.ForwardScratch(scOnly, x, true)
			grad := tensor.New(outFull.Rows(), outFull.Cols())
			for i := range grad.Data {
				grad.Data[i] = r.Normal(0, 1)
			}
			want := full.BackwardScratch(scFull, grad)
			got := only.BackwardInput(scOnly, grad)
			if got.Rows() != want.Rows() || got.Cols() != want.Cols() {
				t.Fatalf("%s %s: input gradient %v, want %v", bk, c.name, got.Shape, want.Shape)
			}
			for i, w := range want.Data {
				if math.Float64bits(got.Data[i]) != math.Float64bits(w) {
					t.Fatalf("%s %s: dx[%d] = %x, want %x", bk, c.name, i, got.Data[i], w)
				}
			}
			for _, g := range only.Grads() {
				for j, v := range g.Data {
					if math.Float64bits(v) != 0 {
						t.Fatalf("%s %s: parameter gradient [%d] = %x after BackwardInput, want +0", bk, c.name, j, v)
					}
				}
			}
		}
	})
}
