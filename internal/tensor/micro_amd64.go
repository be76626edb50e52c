//go:build amd64

package tensor

// cpuHasAVX reports whether the CPU and OS support AVX (CPUID feature
// bit plus XGETBV state check). Implemented in micro_amd64.s.
func cpuHasAVX() bool

// cpuHasAVX512 reports whether the CPU and OS support AVX-512F: OSXSAVE,
// XCR0 opmask/ZMM state enabled by the OS (mask 0xe6), and the AVX512F
// CPUID leaf-7 feature bit. Implemented in micro_amd64.s.
func cpuHasAVX512() bool

// detectBackends probes the host once at init (backend.go): amd64 offers
// avx512 and avx tiers, never neon.
func detectBackends() (avx512, avx, neon bool) {
	avx = cpuHasAVX()
	avx512 = avx && cpuHasAVX512()
	return avx512, avx, false
}

// micro4x4avx is the AVX full-tile micro-kernel: one 4×4 output tile
// over a kc-long reduction, reading A's element (i, p) at
// a[i·rsA + p·csA] and B's row p at b[p·ldb]. A packed panel is the
// case (rsA, csA, ldb) = (1, 4, 4); blocked.go passes an operand's own
// strides when it reads it in place. It is bit-identical to micro4x4G:
// each lane multiplies then adds with one rounding per operation, never
// fusing. The caller guarantees every element the strides reach lies
// inside its operand. It retains no pointer, so an output tile on the
// caller's stack stays there (edgeTileSIMD). Implemented in
// micro_amd64.s.
//
//go:noescape
func micro4x4avx(kc int, a *float64, rsA, csA int, b *float64, ldb int, c *float64, ldc int, first bool)

// micro8x8avx512 is the AVX-512 full-tile micro-kernel: one 8×8 output
// tile held in eight ZMM accumulators across the reduction, with the
// same operand strides as micro4x4avx (a packed panel is
// (rsA, csA, ldb) = (1, 8, 8)). VMULPD + VADDPD per row (never fused),
// bit-identical to an 8×8 walk of the scalar kernel. Implemented in
// micro_amd64.s.
//
//go:noescape
func micro8x8avx512(kc int, a *float64, rsA, csA int, b *float64, ldb int, c *float64, ldc int, first bool)

// Elementwise vector bodies (micro_amd64.s). Each processes exactly n
// elements where the Go wrapper in elemwise.go guarantees n is a
// positive multiple of the lane width (4 for AVX, 8 for AVX-512) and
// handles the scalar tail. All are multiply-round/add-round per element,
// bit-identical to the scalar loops.
func axpyAVX(alpha float64, x, y *float64, n int)
func axpyAVX512(alpha float64, x, y *float64, n int)
func scaleAVX(alpha float64, x *float64, n int)
func scaleAVX512(alpha float64, x *float64, n int)
func addAVX(x, y *float64, n int)
func addAVX512(x, y *float64, n int)

// Adam update bodies (micro_amd64.s): the scalar loop's operations in
// its order per element, n a positive multiple of the lane width (4 for
// AVX, 8 for AVX-512); AdamUpdate (elemwise.go) runs the tail. c is
// read and not retained, so an AdamCoeffs on the caller's stack stays
// there.
//
//go:noescape
func adamAVX(p, grad, m, v *float64, n int, c *AdamCoeffs)

//go:noescape
func adamAVX512(p, grad, m, v *float64, n int, c *AdamCoeffs)

// Activation kernels run 4-wide YMM on both amd64 tiers (the avx512 tier
// reuses them: activations are bandwidth-bound, so wider vectors buy
// little, and the NaN-exact compare masks are simplest in one encoding).
func reluFwdAVX(x, out *float64, n int)
func reluBwdAVX(x, grad, out *float64, n int)
func leakyFwdAVX(alpha float64, x, out *float64, n int)
func leakyBwdAVX(alpha float64, x, grad, out *float64, n int)

// Float32 axpy bodies (micro_amd64.s), the f32 merge's kernel. Same
// determinism contract at half width: VMULPS then VADDPS, one rounding
// each, never fused, so every tier is bit-identical to the generic
// float32 core. n is a positive multiple of the lane width (8 for AVX
// YMM, 16 for AVX-512 ZMM); Axpy32 (precision32.go) enforces it and
// runs the generic tail.
func axpyAVXF32(alpha float32, x, y *float32, n int)
func axpyAVX512F32(alpha float32, x, y *float32, n int)

// Sorting-network bodies (micro_amd64.s), the robust merge's kernels
// (order.go). One YMM body per kernel and width serves both amd64
// tiers. The compare-exchange bodies take n a positive multiple of the
// lane width (4 for f64, 8 for f32); the screen bodies take n a
// positive multiple of 8, one mask byte per 8 lanes, and k ≥ 1 rows at
// stride elements apart. The wrappers enforce both and run the generic
// tails.
func compareExchangeAVX(lo, hi *float64, n int)
func compareExchangeAVXF32(lo, hi *float32, n int)
func screenZeroNaNAVX(mask *uint8, block *float64, stride, k, n int)
func screenZeroNaNAVXF32(mask *uint8, block *float32, stride, k, n int)

// Finiteness screen bodies (micro_amd64.s), one YMM body per width for
// both amd64 tiers: false when some element's exponent bits are all
// ones. n is a positive multiple of 8 doubles or 16 floats; AllFinite
// and AllFinite32 (order.go) run the generic tail.
func allFiniteAVX(x *float64, n int) bool
func allFiniteAVXF32(x *float32, n int) bool
