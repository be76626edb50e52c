package tensor

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"feddrl/internal/rng"
)

// fillElems populates x with adversarial elementwise inputs: normal
// deviates plus exact +0/-0, NaN, ±Inf and denormals, so the SIMD
// bodies are checked bit for bit against the scalar branches on every
// special-value class.
func fillElems(x []float64, r *rng.RNG) {
	specials := []float64{
		0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		5e-324, -5e-324, 1, -1,
	}
	for i := range x {
		if r.Intn(4) == 0 {
			x[i] = specials[r.Intn(len(specials))]
		} else {
			x[i] = r.Normal(0, 1)
		}
	}
}

// sameBits compares slices bit for bit (NaN == NaN, +0 != -0).
func sameBits(t *testing.T, tag string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %x, want %x", tag, i, got[i], want[i])
		}
	}
}

// Scalar references with the same explicit-conversion rounding guards
// as the generic kernels.
func refAxpy(alpha float64, x, y []float64) {
	for i, v := range x {
		y[i] += float64(alpha * v)
	}
}

func refScale(alpha float64, x []float64) {
	for i := range x {
		x[i] *= alpha
	}
}

func refAdd(x, y []float64) {
	for i, v := range x {
		y[i] += v
	}
}

func refReLUFwd(x, out []float64) {
	for i, v := range x {
		if v <= 0 {
			out[i] = 0
		} else {
			out[i] = v
		}
	}
}

func refReLUBwd(x, g, out []float64) {
	for i := range x {
		if x[i] <= 0 {
			out[i] = 0
		} else {
			out[i] = g[i]
		}
	}
}

func refLeakyFwd(alpha float64, x, out []float64) {
	for i, v := range x {
		if v < 0 {
			out[i] = float64(alpha * v)
		} else {
			out[i] = v
		}
	}
}

func refLeakyBwd(alpha float64, x, g, out []float64) {
	for i := range x {
		if x[i] < 0 {
			out[i] = float64(g[i] * alpha)
		} else {
			out[i] = g[i]
		}
	}
}

// TestElemwiseBitIdentity checks every elementwise kernel against its
// scalar reference, bit for bit, for every backend in the fallback
// chain and lengths straddling the 4- and 8-wide vector bodies and
// their scalar tails.
func TestElemwiseBitIdentity(t *testing.T) {
	restoreBackend(t)
	lengths := []int{1, 2, 3, 4, 5, 7, 8, 9, 11, 15, 16, 17, 31, 64, 257, 1003}
	const alpha = 0.3 // not exactly representable: scaling really rounds
	for _, bk := range Backends() {
		if err := SetBackend(bk); err != nil {
			t.Fatalf("SetBackend(%q): %v", bk, err)
		}
		for _, n := range lengths {
			t.Run(fmt.Sprintf("%s_n%d", bk, n), func(t *testing.T) {
				r := rng.New(uint64(31*n + 7))
				x := make([]float64, n)
				g := make([]float64, n)
				y0 := make([]float64, n)
				fillElems(x, r)
				fillElems(g, r)
				fillElems(y0, r)

				y := append([]float64(nil), y0...)
				want := append([]float64(nil), y0...)
				Axpy(alpha, x, y)
				refAxpy(alpha, x, want)
				sameBits(t, "Axpy", y, want)

				s := append([]float64(nil), x...)
				want = append(want[:0], x...)
				Scale(alpha, s)
				refScale(alpha, want)
				sameBits(t, "Scale", s, want)

				y = append(y[:0], y0...)
				want = append(want[:0], y0...)
				Add(x, y)
				refAdd(x, want)
				sameBits(t, "Add", y, want)

				out := make([]float64, n)
				want = make([]float64, n)
				ReLUForward(x, out)
				refReLUFwd(x, want)
				sameBits(t, "ReLUForward", out, want)

				ReLUBackward(x, g, out)
				refReLUBwd(x, g, want)
				sameBits(t, "ReLUBackward", out, want)

				LeakyReLUForward(alpha, x, out)
				refLeakyFwd(alpha, x, want)
				sameBits(t, "LeakyReLUForward", out, want)

				LeakyReLUBackward(alpha, x, g, out)
				refLeakyBwd(alpha, x, g, want)
				sameBits(t, "LeakyReLUBackward", out, want)
			})
		}
	}
}

// refAdam is the Adam update as nn.Adam's scalar loop spells it, with
// the explicit-conversion rounding guards of the other references.
func refAdam(p, g, m, v []float64, c AdamCoeffs) {
	for j := range p {
		gj := g[j] * c.Scale
		m[j] = float64(c.Beta1*m[j]) + float64((1-c.Beta1)*gj)
		v[j] = float64(c.Beta2*v[j]) + float64(float64((1-c.Beta2)*gj)*gj)
		mHat := m[j] / c.BC1
		vHat := v[j] / c.BC2
		p[j] -= float64(c.LR*mHat) / (math.Sqrt(vHat) + c.Eps)
	}
}

// TestAdamUpdateBitIdentity checks AdamUpdate against the scalar Adam
// loop bit for bit, for every backend in the fallback chain and lengths
// straddling the 4- and 8-wide bodies and their tails. Parameters,
// gradients and both moments mix normal deviates with ±0, NaN, ±Inf
// and subnormals; five steps run in a row, with bias corrections
// 1−βᵗ, alternating an unclipped gradient (Scale 1) and a clipped one.
// As for the GEMM (TestBlockedSpecialValues), a NaN's payload is not
// promised: when a moment's add meets two NaNs, x86 keeps the payload
// of the operand in a fixed position, and the compiler may order a
// commutative add's operands either way.
func TestAdamUpdateBitIdentity(t *testing.T) {
	restoreBackend(t)
	lengths := []int{1, 2, 3, 4, 5, 7, 8, 9, 11, 15, 16, 17, 31, 64, 257, 1003}
	for _, bk := range Backends() {
		if err := SetBackend(bk); err != nil {
			t.Fatalf("SetBackend(%q): %v", bk, err)
		}
		for _, n := range lengths {
			t.Run(fmt.Sprintf("%s_n%d", bk, n), func(t *testing.T) {
				r := rng.New(uint64(17*n + 3))
				p, g, m, v := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
				for _, x := range [][]float64{p, g, m, v} {
					fillElems(x, r)
				}
				wp, wm, wv := slices.Clone(p), slices.Clone(m), slices.Clone(v)
				for step := 1; step <= 5; step++ {
					scale := 1.0
					if step%2 == 0 {
						scale = 5 / 13.7 // a clip factor MaxGradNorm/norm
					}
					// Float64 variables, not constants: 1−β must round
					// as nn.Adam's runtime subtraction does.
					b1, b2 := 0.9, 0.999
					c := AdamCoeffs{
						Scale: scale,
						Beta1: b1, OneMinusBeta1: 1 - b1,
						Beta2: b2, OneMinusBeta2: 1 - b2,
						BC1: 1 - math.Pow(b1, float64(step)),
						BC2: 1 - math.Pow(b2, float64(step)),
						LR:  1e-3, Eps: 1e-8,
					}
					AdamUpdate(p, g, m, v, c)
					refAdam(wp, g, wm, wv, c)
					sameBitsUpToNaN(t, fmt.Sprintf("step %d m", step), m, wm)
					sameBitsUpToNaN(t, fmt.Sprintf("step %d v", step), v, wv)
					sameBitsUpToNaN(t, fmt.Sprintf("step %d p", step), p, wp)
					fillElems(g, r)
				}
			})
		}
	}
}

// TestElemwiseInPlaceAliasing pins the documented exact-aliasing
// contract: out may be x (activations) or g (backward passes).
func TestElemwiseInPlaceAliasing(t *testing.T) {
	restoreBackend(t)
	const n = 37
	for _, bk := range Backends() {
		if err := SetBackend(bk); err != nil {
			t.Fatalf("SetBackend(%q): %v", bk, err)
		}
		r := rng.New(99)
		x := make([]float64, n)
		g := make([]float64, n)
		fillElems(x, r)
		fillElems(g, r)

		want := make([]float64, n)
		refReLUFwd(x, want)
		inPlace := append([]float64(nil), x...)
		ReLUForward(inPlace, inPlace)
		sameBits(t, bk+"/ReLUForward(x,x)", inPlace, want)

		refLeakyBwd(0.1, x, g, want)
		gAlias := append([]float64(nil), g...)
		LeakyReLUBackward(0.1, x, gAlias, gAlias)
		sameBits(t, bk+"/LeakyReLUBackward(g,g)", gAlias, want)
	}
}

// TestTensorElemwiseMethods checks the Tensor methods route through the
// kernels with the same results and still enforce shape agreement, and
// that Axpy refuses a y shorter than x.
func TestTensorElemwiseMethods(t *testing.T) {
	r := rng.New(5)
	a, b := New(7, 9), New(7, 9)
	fillRandom(a, r)
	fillRandom(b, r)

	sum := a.Clone()
	sum.AddInPlace(b)
	want := make([]float64, a.Len())
	copy(want, a.Data)
	refAdd(b.Data, want)
	sameBits(t, "AddInPlace", sum.Data, want)

	ax := a.Clone()
	Axpy(-0.25, b.Data, ax.Data)
	copy(want, a.Data)
	refAxpy(-0.25, b.Data, want)
	sameBits(t, "Axpy", ax.Data, want)

	sc := a.Clone()
	sc.ScaleInPlace(1.0 / 3.0)
	copy(want, a.Data)
	refScale(1.0/3.0, want)
	sameBits(t, "ScaleInPlace", sc.Data, want)

	for _, fn := range []func(){
		func() { a.AddInPlace(New(9, 7)) },
		func() { Axpy(1, New(8, 9).Data, a.Data) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("shape mismatch did not panic")
				}
			}()
			fn()
		}()
	}
}

// TestElemwiseAllocFree pins that the kernels never allocate — they are
// inner-loop calls of aggregation and SGD.
func TestElemwiseAllocFree(t *testing.T) {
	x := make([]float64, 1003)
	y := make([]float64, 1003)
	for i := range x {
		x[i] = float64(i)
	}
	m, v := make([]float64, 1003), make([]float64, 1003)
	c := AdamCoeffs{Scale: 1, Beta1: 0.9, OneMinusBeta1: 0.1, Beta2: 0.999, OneMinusBeta2: 0.001, BC1: 0.1, BC2: 0.001, LR: 1e-3, Eps: 1e-8}
	if allocs := testing.AllocsPerRun(20, func() {
		Axpy(0.5, x, y)
		Add(x, y)
		Scale(0.999, y)
		ReLUForward(x, y)
		AdamUpdate(y, x, m, v, c)
		AllFinite(y)
	}); allocs != 0 {
		t.Fatalf("elementwise kernels allocate %.1f times per run, want 0", allocs)
	}
}
