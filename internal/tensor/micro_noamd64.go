//go:build !amd64

package tensor

// amd64 vector kernels are never called when useAVX512/useAVX are false.

func micro4x4avx(kc int, a *float64, rsA, csA int, b *float64, ldb int, c *float64, ldc int, first bool) {
	panic("tensor: AVX micro-kernel called on non-amd64")
}

func micro8x8avx512(kc int, a *float64, rsA, csA int, b *float64, ldb int, c *float64, ldc int, first bool) {
	panic("tensor: AVX-512 micro-kernel called on non-amd64")
}

func axpyAVX(alpha float64, x, y *float64, n int) {
	panic("tensor: AVX kernel called on non-amd64")
}

func axpyAVX512(alpha float64, x, y *float64, n int) {
	panic("tensor: AVX-512 kernel called on non-amd64")
}

func scaleAVX(alpha float64, x *float64, n int) {
	panic("tensor: AVX kernel called on non-amd64")
}

func scaleAVX512(alpha float64, x *float64, n int) {
	panic("tensor: AVX-512 kernel called on non-amd64")
}

func addAVX(x, y *float64, n int) {
	panic("tensor: AVX kernel called on non-amd64")
}

func addAVX512(x, y *float64, n int) {
	panic("tensor: AVX-512 kernel called on non-amd64")
}

func adamAVX(p, grad, m, v *float64, n int, c *AdamCoeffs) {
	panic("tensor: AVX kernel called on non-amd64")
}

func adamAVX512(p, grad, m, v *float64, n int, c *AdamCoeffs) {
	panic("tensor: AVX-512 kernel called on non-amd64")
}

func reluFwdAVX(x, out *float64, n int) {
	panic("tensor: AVX kernel called on non-amd64")
}

func reluBwdAVX(x, grad, out *float64, n int) {
	panic("tensor: AVX kernel called on non-amd64")
}

func leakyFwdAVX(alpha float64, x, out *float64, n int) {
	panic("tensor: AVX kernel called on non-amd64")
}

func leakyBwdAVX(alpha float64, x, grad, out *float64, n int) {
	panic("tensor: AVX kernel called on non-amd64")
}

func axpyAVXF32(alpha float32, x, y *float32, n int) {
	panic("tensor: AVX f32 kernel called on non-amd64")
}

func axpyAVX512F32(alpha float32, x, y *float32, n int) {
	panic("tensor: AVX-512 f32 kernel called on non-amd64")
}

func compareExchangeAVX(lo, hi *float64, n int) {
	panic("tensor: AVX kernel called on non-amd64")
}

func compareExchangeAVXF32(lo, hi *float32, n int) {
	panic("tensor: AVX f32 kernel called on non-amd64")
}

func screenZeroNaNAVX(mask *uint8, block *float64, stride, k, n int) {
	panic("tensor: AVX kernel called on non-amd64")
}

func screenZeroNaNAVXF32(mask *uint8, block *float32, stride, k, n int) {
	panic("tensor: AVX f32 kernel called on non-amd64")
}

func allFiniteAVX(x *float64, n int) bool {
	panic("tensor: AVX kernel called on non-amd64")
}

func allFiniteAVXF32(x *float32, n int) bool {
	panic("tensor: AVX f32 kernel called on non-amd64")
}
