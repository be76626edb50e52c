package tensor

// The float32 side of the substrate that runs reach. Clients always
// train in float64; f32 precision mode narrows only the federated
// state (the fl package's uploads, merges and wire encoding). So runs
// need just the exact conversions at that boundary, the kernel the f32
// weighted merge folds with, Axpy32, and the robust merge's
// sorting-network kernels (order.go). Axpy32 has SIMD bodies behind
// the same backend dispatch as the float64 layer (elemwise.go).
// Its f32 lanes are twice as wide per vector — 16 on avx512 ZMM, 8 on
// avx YMM — so the same cache traffic moves twice the weights. The
// scalar tail comes from the shared generic core (generic.go).
//
// Determinism: per-element independent, one rounding per multiply
// (VMULPS) and one per add (VADDPS), never fused — bit-identical to the
// generic scalar loop on every backend.

// Axpy32 computes y[i] += alpha·x[i] over len(x) float32 elements
// (len(y) must be at least len(x)).
func Axpy32(alpha float32, x, y []float32) {
	n := len(x)
	y = y[:n]
	i := 0
	switch {
	case useAVX512:
		if v := n &^ 15; v > 0 {
			axpyAVX512F32(alpha, &x[0], &y[0], v)
			i = v
		}
	case useAVX:
		if v := n &^ 7; v > 0 {
			axpyAVXF32(alpha, &x[0], &y[0], v)
			i = v
		}
	}
	axpyTailG(alpha, x, y, i)
}

// Widen converts src exactly into float64, reusing dst when it has the
// capacity. Every float32 is exactly representable in float64, so the
// conversion is deterministic and lossless: Quantize(Widen(v)) == v bit
// for bit, including NaN payloads, signed zeros and denormals.
func Widen(dst []float64, src []float32) []float64 {
	if cap(dst) < len(src) {
		dst = make([]float64, len(src))
	}
	dst = dst[:len(src)]
	for i, v := range src {
		dst[i] = float64(v)
	}
	return dst
}

// Quantize converts src to float32 with one round-to-nearest-even per
// element (the hardware conversion), reusing dst when it has the
// capacity. This is the only lossy step of f32 mode, and it is
// deterministic: the result depends only on src values, never on
// backend or worker count.
func Quantize(dst []float32, src []float64) []float32 {
	if cap(dst) < len(src) {
		dst = make([]float32, len(src))
	}
	dst = dst[:len(src)]
	for i, v := range src {
		dst[i] = float32(v)
	}
	return dst
}

// QuantizeLattice rounds v in place onto the float32 lattice:
// v[i] = float64(float32(v[i])). After it, Widen(Quantize(v)) == v, so
// a float64-carried vector is exactly representable at half width —
// the invariant the fl package's f32 mode maintains for the global
// model between rounds.
func QuantizeLattice(v []float64) {
	for i, x := range v {
		v[i] = float64(float32(x))
	}
}
