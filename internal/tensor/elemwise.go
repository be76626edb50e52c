package tensor

import "math"

// Vectorized elementwise kernels behind the same backend dispatch as the
// blocked GEMM (backend.go). Eq. 4 aggregation and SGD updates are
// Axpy-bound once GEMM is fast, and the activation loops dominate the
// non-GEMM share of a train step — so all of them get SIMD bodies on
// amd64 with scalar tails here.
//
// Determinism: elementwise ops are per-element independent, so splitting
// a slice into a vector body and a scalar tail cannot change any
// element's rounding; each kernel still performs one rounding per
// multiply and one per add, never fused. The scalar tails come from the
// generic element core (generic.go), whose axpy tail Axpy32
// (precision32.go) shares; they spell the multiply as E(a*b), the explicit
// conversion that forces the product to round before the add and by the
// Go spec forbids compiler FMA contraction (the arm64 compiler
// otherwise emits FMADD) — a no-op on amd64 and the reason generic
// results are bit-identical across GOARCHes.
//
// Aliasing: out may be exactly x (or g) or fully disjoint; partial
// overlap is not supported.

// Axpy computes y[i] += alpha·x[i] over len(x) elements (len(y) must be
// at least len(x)).
func Axpy(alpha float64, x, y []float64) {
	n := len(x)
	y = y[:n]
	i := 0
	switch {
	case useAVX512:
		if v := n &^ 7; v > 0 {
			axpyAVX512(alpha, &x[0], &y[0], v)
			i = v
		}
	case useAVX:
		if v := n &^ 3; v > 0 {
			axpyAVX(alpha, &x[0], &y[0], v)
			i = v
		}
	}
	axpyTailG(alpha, x, y, i)
}

// Scale computes x[i] *= alpha in place.
func Scale(alpha float64, x []float64) {
	n := len(x)
	i := 0
	switch {
	case useAVX512:
		if v := n &^ 7; v > 0 {
			scaleAVX512(alpha, &x[0], v)
			i = v
		}
	case useAVX:
		if v := n &^ 3; v > 0 {
			scaleAVX(alpha, &x[0], v)
			i = v
		}
	}
	scaleTailG(alpha, x, i)
}

// Add computes y[i] += x[i] over len(x) elements.
func Add(x, y []float64) {
	n := len(x)
	y = y[:n]
	i := 0
	switch {
	case useAVX512:
		if v := n &^ 7; v > 0 {
			addAVX512(&x[0], &y[0], v)
			i = v
		}
	case useAVX:
		if v := n &^ 3; v > 0 {
			addAVX(&x[0], &y[0], v)
			i = v
		}
	}
	addTailG(x, y, i)
}

// AdamCoeffs are the per-call constants of one Adam step (nn.Adam):
// the gradient scale of global-norm clipping (1 when unclipped), the
// moment decays and their complements, the bias corrections 1−βᵗ, the
// learning rate and ε. The kernels read the fields in this order.
type AdamCoeffs struct {
	Scale                float64
	Beta1, OneMinusBeta1 float64
	Beta2, OneMinusBeta2 float64
	BC1, BC2             float64
	LR, Eps              float64
}

// AdamUpdate applies one Adam step to the parameters p from their
// gradients g and first and second moments m and v (all len(p) long):
//
//	gj   = g[j]·Scale
//	m[j] = Beta1·m[j] + OneMinusBeta1·gj
//	v[j] = Beta2·v[j] + (OneMinusBeta2·gj)·gj
//	p[j] = p[j] − (LR·(m[j]/BC1)) / (√(v[j]/BC2) + Eps)
//
// Every operation rounds once, in this order, on every backend: the
// SIMD bodies divide and take square roots with VDIVPD and VSQRTPD,
// which round correctly like their scalar forms, so they match adamTail
// bit for bit, up to a NaN's payload where two NaNs meet in a
// commutative add (the GEMM's exception, see blocked.go).
func AdamUpdate(p, g, m, v []float64, c AdamCoeffs) {
	n := len(p)
	g, m, v = g[:n], m[:n], v[:n]
	i := 0
	switch {
	case useAVX512:
		if w := n &^ 7; w > 0 {
			adamAVX512(&p[0], &g[0], &m[0], &v[0], w, &c)
			i = w
		}
	case useAVX:
		if w := n &^ 3; w > 0 {
			adamAVX(&p[0], &g[0], &m[0], &v[0], w, &c)
			i = w
		}
	}
	adamTail(p, g, m, v, &c, i)
}

// adamTail runs AdamUpdate's scalar loop over [i, len(p)). The explicit
// float64(·) conversions round each product before its add, so no
// compiler fuses them (see the package comment on E(a*b)).
func adamTail(p, g, m, v []float64, c *AdamCoeffs, i int) {
	for ; i < len(p); i++ {
		gj := g[i] * c.Scale
		m[i] = float64(c.Beta1*m[i]) + float64(c.OneMinusBeta1*gj)
		v[i] = float64(c.Beta2*v[i]) + float64(float64(c.OneMinusBeta2*gj)*gj)
		mHat := m[i] / c.BC1
		vHat := v[i] / c.BC2
		p[i] -= float64(c.LR*mHat) / (math.Sqrt(vHat) + c.Eps)
	}
}

// ReLUForward computes out[i] = x[i] if x[i] > 0 else 0, keeping NaN
// inputs (scalar branch semantics: zero only when v <= 0).
func ReLUForward(x, out []float64) {
	n := len(x)
	out = out[:n]
	i := 0
	if useAVX || useAVX512 {
		if v := n &^ 3; v > 0 {
			reluFwdAVX(&x[0], &out[0], v)
			i = v
		}
	}
	reluFwdTailG(x, out, i)
}

// ReLUBackward computes out[i] = g[i] if x[i] > 0 else 0, passing the
// gradient through for NaN x (scalar branch semantics).
func ReLUBackward(x, g, out []float64) {
	n := len(x)
	g, out = g[:n], out[:n]
	i := 0
	if useAVX || useAVX512 {
		if v := n &^ 3; v > 0 {
			reluBwdAVX(&x[0], &g[0], &out[0], v)
			i = v
		}
	}
	reluBwdTailG(x, g, out, i)
}

// LeakyReLUForward computes out[i] = alpha·x[i] if x[i] < 0 else x[i]
// (NaN inputs pass through unscaled, matching the scalar branch).
func LeakyReLUForward(alpha float64, x, out []float64) {
	n := len(x)
	out = out[:n]
	i := 0
	if useAVX || useAVX512 {
		if v := n &^ 3; v > 0 {
			leakyFwdAVX(alpha, &x[0], &out[0], v)
			i = v
		}
	}
	leakyFwdTailG(alpha, x, out, i)
}

// LeakyReLUBackward computes out[i] = alpha·g[i] if x[i] < 0 else g[i].
func LeakyReLUBackward(alpha float64, x, g, out []float64) {
	n := len(x)
	g, out = g[:n], out[:n]
	i := 0
	if useAVX || useAVX512 {
		if v := n &^ 3; v > 0 {
			leakyBwdAVX(alpha, &x[0], &g[0], &out[0], v)
			i = v
		}
	}
	leakyBwdTailG(alpha, x, g, out, i)
}
