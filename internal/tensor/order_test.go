package tensor

import (
	"math"
	"testing"

	"feddrl/internal/rng"
)

// orderLengths straddle the sorting-network kernels' 4- and 8-lane
// vector bodies, their tails and the robust merge's 128-lane block.
var orderLengths = func() []int {
	var ns []int
	for n := 0; n <= 33; n++ {
		ns = append(ns, n)
	}
	return append(ns, 127, 128, 129, 1000)
}()

// orderSpecials64 and orderSpecials32 are the values a float sort
// tells apart only by their bits or by an unusual compare: zeros of
// both signs, quiet and signalling NaNs with distinct payloads and
// signs, ±Inf, the ±smallest subnormals and the largest finite value.
// Their first five entries are the zeros and NaNs the lane screen
// marks.
var (
	orderSpecials64 = []float64{
		0, math.Copysign(0, -1),
		math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0xfff8000000000002),
		math.Float64frombits(0x7ff0000000000003),
		math.Inf(1), math.Inf(-1), 5e-324, -5e-324, math.MaxFloat64, 1, -1,
	}
	orderSpecials32 = []float32{
		0, float32(math.Copysign(0, -1)),
		math.Float32frombits(0x7fc00001), math.Float32frombits(0xffc00002),
		math.Float32frombits(0x7f800003),
		float32(math.Inf(1)), float32(math.Inf(-1)),
		math.Float32frombits(1), math.Float32frombits(0x80000001), math.MaxFloat32, 1, -1,
	}
)

// elemBits is v's bit pattern, so NaN payloads and zero signs compare.
func elemBits[E Elem](v E) uint64 {
	if f, ok := any(v).(float32); ok {
		return uint64(math.Float32bits(f))
	}
	return math.Float64bits(any(v).(float64))
}

// fillOrder fills x with normal deviates, one value in four replaced by
// a special.
func fillOrder[E Elem](x []E, specials []E, r *rng.RNG) {
	for i := range x {
		if r.Intn(4) == 0 {
			x[i] = specials[r.Intn(len(specials))]
		} else {
			x[i] = E(r.Normal(0, 1))
		}
	}
}

// checkCompareExchange runs cx over n lanes of two slices carved from
// one buffer at odd offsets, with a sentinel after each, and requires
// the reference swap where hi < lo, bit for bit, and no write past n.
func checkCompareExchange[E Elem](t *testing.T, tag string, n int, r *rng.RNG, specials []E, cx func(lo, hi []E)) {
	t.Helper()
	buf := make([]E, 2*n+3)
	fillOrder(buf, specials, r)
	lo, hi := buf[1:n+1], buf[n+2:2*n+2]
	for j := range lo {
		if r.Intn(8) == 0 {
			hi[j] = lo[j]
		}
	}
	want := append([]E(nil), buf...)
	wlo, whi := want[1:n+1], want[n+2:2*n+2]
	for j := range wlo {
		if whi[j] < wlo[j] {
			wlo[j], whi[j] = whi[j], wlo[j]
		}
	}
	cx(lo, hi)
	for i := range want {
		if elemBits(buf[i]) != elemBits(want[i]) {
			t.Fatalf("%s n=%d: buffer[%d] = %#x, want %#x", tag, n, i, elemBits(buf[i]), elemBits(want[i]))
		}
	}
}

// TestCompareExchangeBitIdentity checks CompareExchange and
// CompareExchange32 against the reference swap, bit for bit, under every
// backend in the fallback chain, over lengths around the vector bodies
// and inputs holding NaN payloads, ±0, ±Inf, subnormals and equal pairs.
func TestCompareExchangeBitIdentity(t *testing.T) {
	restoreBackend(t)
	for _, bk := range Backends() {
		if err := SetBackend(bk); err != nil {
			t.Fatalf("SetBackend(%q): %v", bk, err)
		}
		for _, n := range orderLengths {
			r := rng.New(uint64(41*n + 3))
			checkCompareExchange(t, bk+"/f64", n, r, orderSpecials64, CompareExchange)
			checkCompareExchange(t, bk+"/f32", n, r, orderSpecials32, CompareExchange32)
		}
	}
}

// checkScreenKernel runs screen over a k-row block of n lanes at stride and
// requires the reference mask in its (n+7)/8 bytes and the bytes after
// them untouched. Two fills: in "sole", lane j's only zero or NaN sits
// in row j mod (k+1), so each row alone marks some lanes and some lanes
// stay clear; in "random", one value in four is a special. The stride
// gap past lane n−1 holds zeros and NaNs, which no lane may pick up.
func checkScreenKernel[E Elem](t *testing.T, tag string, n, k, stride int, r *rng.RNG, specials []E,
	screen func(mask []uint8, block []E, stride, k, n int)) {
	t.Helper()
	marks := specials[:5]
	for _, fill := range []string{"sole", "random"} {
		block := make([]E, (k-1)*stride+n)
		for i := range block {
			switch {
			case i%stride >= n:
				block[i] = marks[r.Intn(len(marks))]
			case fill == "random":
				fillOrder(block[i:i+1], specials, r)
			case r.Intn(2) == 0:
				block[i] = specials[len(marks)+r.Intn(len(specials)-len(marks))]
			default:
				block[i] = E(r.Normal(0, 1))
			}
		}
		want := make([]uint8, (n+7)/8)
		for j := 0; j < n; j++ {
			if fill == "sole" {
				if row := j % (k + 1); row < k {
					block[row*stride+j] = marks[(j/(k+1))%len(marks)]
				}
			}
			for row := 0; row < k; row++ {
				if v := block[row*stride+j]; v == 0 || v != v {
					want[j/8] |= 1 << (j % 8)
				}
			}
		}
		mask := make([]uint8, len(want)+2)
		for i := range mask {
			mask[i] = 0xa5
		}
		screen(mask, block, stride, k, n)
		for i, m := range mask {
			w := uint8(0xa5)
			if i < len(want) {
				w = want[i]
			}
			if m != w {
				t.Fatalf("%s %s n=%d k=%d stride=%d: mask[%d] = %08b, want %08b", tag, fill, n, k, stride, i, m, w)
			}
		}
	}
}

// TestScreenZeroNaNBitIdentity checks ScreenZeroNaN and ScreenZeroNaN32
// against the reference screen under every backend in the fallback
// chain: lengths around the 8-lane body, 1 to 17 rows, the tight stride
// and strides wider than the lane count, and every row alone marking
// lanes with each zero sign and NaN kind. A block or mask too short for
// the screen must panic before any kernel runs.
func TestScreenZeroNaNBitIdentity(t *testing.T) {
	restoreBackend(t)
	for _, bk := range Backends() {
		if err := SetBackend(bk); err != nil {
			t.Fatalf("SetBackend(%q): %v", bk, err)
		}
		for _, n := range orderLengths {
			r := rng.New(uint64(43*n + 5))
			for k := 1; k <= 17; k++ {
				for _, stride := range []int{max(n, 1), n + 13} {
					checkScreenKernel(t, bk+"/f64", n, k, stride, r, orderSpecials64, ScreenZeroNaN)
					checkScreenKernel(t, bk+"/f32", n, k, stride, r, orderSpecials32, ScreenZeroNaN32)
				}
			}
		}
		for _, c := range []struct{ mask, block, stride, k, n int }{
			{2, 3*16 + 15, 16, 4, 16}, // block one short
			{1, 4 * 16, 16, 4, 16},    // mask one byte short
			{2, 4 * 16, 15, 4, 16},    // stride under the lane count
		} {
			for _, f := range []func(){
				func() { ScreenZeroNaN(make([]uint8, c.mask), make([]float64, c.block), c.stride, c.k, c.n) },
				func() { ScreenZeroNaN32(make([]uint8, c.mask), make([]float32, c.block), c.stride, c.k, c.n) },
			} {
				func() {
					defer func() {
						if recover() == nil {
							t.Fatalf("%s: screen %+v did not panic", bk, c)
						}
					}()
					f()
				}()
			}
		}
	}
}

// TestAllFiniteSweep checks AllFinite and AllFinite32 against a
// math.IsNaN/IsInf loop under every backend in the fallback chain. For
// every length 0 to 40, a vector of finite values, subnormals, zeros of
// both signs and the largest finite magnitudes must pass, and the same
// vector with one ±Inf or NaN (quiet or signalling, either sign) at any
// single position must fail.
func TestAllFiniteSweep(t *testing.T) {
	restoreBackend(t)
	finite64 := []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, math.MaxFloat64, -math.MaxFloat64, 1, -1}
	bad64 := []float64{math.Inf(1), math.Inf(-1),
		math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0xfff8000000000000),
		math.Float64frombits(0x7ff0000000000003), math.Float64frombits(0xffffffffffffffff)}
	finite32 := []float32{0, float32(math.Copysign(0, -1)), math.Float32frombits(1), math.Float32frombits(0x80000001),
		math.MaxFloat32, -math.MaxFloat32, 1, -1}
	bad32 := []float32{float32(math.Inf(1)), float32(math.Inf(-1)),
		math.Float32frombits(0x7fc00001), math.Float32frombits(0xffc00000),
		math.Float32frombits(0x7f800003), math.Float32frombits(0xffffffff)}
	ref64 := func(x []float64) bool {
		for _, v := range x {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
		return true
	}
	ref32 := func(x []float32) bool {
		for _, v := range x {
			if w := float64(v); math.IsNaN(w) || math.IsInf(w, 0) {
				return false
			}
		}
		return true
	}
	for _, bk := range Backends() {
		if err := SetBackend(bk); err != nil {
			t.Fatalf("SetBackend(%q): %v", bk, err)
		}
		for n := 0; n <= 40; n++ {
			r := rng.New(uint64(29*n + 1))
			x, y := make([]float64, n), make([]float32, n)
			for i := range x {
				if r.Intn(3) == 0 {
					x[i], y[i] = finite64[r.Intn(len(finite64))], finite32[r.Intn(len(finite32))]
				} else {
					x[i] = r.Normal(0, 1)
					y[i] = float32(x[i])
				}
			}
			if got := AllFinite(x); !got || !ref64(x) {
				t.Fatalf("%s: AllFinite(%v) = %v, want true", bk, x, got)
			}
			if got := AllFinite32(y); !got || !ref32(y) {
				t.Fatalf("%s: AllFinite32(%v) = %v, want true", bk, y, got)
			}
			for pos := 0; pos < n; pos++ {
				for _, v := range bad64 {
					keep := x[pos]
					x[pos] = v
					if got := AllFinite(x); got || ref64(x) {
						t.Fatalf("%s: n %d, %#x at %d: AllFinite = %v, want false", bk, n, math.Float64bits(v), pos, got)
					}
					x[pos] = keep
				}
				for _, v := range bad32 {
					keep := y[pos]
					y[pos] = v
					if got := AllFinite32(y); got || ref32(y) {
						t.Fatalf("%s: n %d, %#x at %d: AllFinite32 = %v, want false", bk, n, math.Float32bits(v), pos, got)
					}
					y[pos] = keep
				}
			}
		}
	}
}
