package tensor

import "fmt"

// Sorting-network kernels for the robust merge's order statistics (the
// fl package's Median and TrimmedMean), and the finiteness screen its
// quarantine gate runs on every upload. That merge sorts k cohort
// values per coordinate with a comparator network laid over a block
// whose rows are updates and whose lanes are coordinates, so each
// comparator is one elementwise compare-exchange of two rows. The lane
// screen finds the lanes where that network's result may depend on how
// equal-comparing values are ordered, the ones holding a zero or a NaN,
// which the merge then re-sorts one coordinate at a time.
//
// All three kernels have f64 and f32 forms behind the backend dispatch
// of elemwise.go. On amd64 one 256-bit YMM body per kernel and width
// serves both the avx512 and avx tiers, as the activation kernels do:
// a comparator pass over a cache-resident block is bound by its loads
// and stores, and a prototype's ZMM bodies measured no faster. Other
// tiers run the generic core (generic.go), which also runs every
// vector body's tail.
//
// Determinism: the kernels are per-lane selections and tests with no
// arithmetic, so any split into vector body and scalar tail gives the
// same bits, and the same screen result, on every backend.

// CompareExchange orders each lane pair: where hi[j] < lo[j], the two
// values swap. Lanes that compare equal, unordered (either value NaN)
// or as zeros of both signs keep their bits in place. len(hi) must be
// at least len(lo); the slices must not overlap.
func CompareExchange(lo, hi []float64) {
	n := len(lo)
	hi = hi[:n]
	i := 0
	if useAVX || useAVX512 {
		if v := n &^ 3; v > 0 {
			compareExchangeAVX(&lo[0], &hi[0], v)
			i = v
		}
	}
	compareExchangeTailG(lo, hi, i)
}

// CompareExchange32 is CompareExchange over float32 lanes.
func CompareExchange32(lo, hi []float32) {
	n := len(lo)
	hi = hi[:n]
	i := 0
	if useAVX || useAVX512 {
		if v := n &^ 7; v > 0 {
			compareExchangeAVXF32(&lo[0], &hi[0], v)
			i = v
		}
	}
	compareExchangeTailG(lo, hi, i)
}

// ScreenZeroNaN marks the lanes of a k-row block where any row holds a
// zero of either sign or a NaN. Row r's lane j is block[r·stride+j],
// for lanes j < n ≤ stride. Lane j's mark is bit j%8 of mask[j/8]: the
// kernel writes the (n+7)/8 bytes that cover n lanes, set where a lane
// is marked and clear elsewhere, including the bits past lane n−1.
// It panics unless block and mask reach that far.
func ScreenZeroNaN(mask []uint8, block []float64, stride, k, n int) {
	checkScreen(len(mask), len(block), stride, k, n)
	i := 0
	if useAVX || useAVX512 {
		if v := n &^ 7; v > 0 && k > 0 {
			screenZeroNaNAVX(&mask[0], &block[0], stride, k, v)
			i = v
		}
	}
	screenTailG(mask, block, stride, k, n, i)
}

// ScreenZeroNaN32 is ScreenZeroNaN over a float32 block.
func ScreenZeroNaN32(mask []uint8, block []float32, stride, k, n int) {
	checkScreen(len(mask), len(block), stride, k, n)
	i := 0
	if useAVX || useAVX512 {
		if v := n &^ 7; v > 0 && k > 0 {
			screenZeroNaNAVXF32(&mask[0], &block[0], stride, k, v)
			i = v
		}
	}
	screenTailG(mask, block, stride, k, n, i)
}

// AllFinite reports whether every element of x is finite: no NaN and
// no ±Inf. It is the fl package's quarantine screen, and its result
// equals the scalar loop's on every input and backend.
func AllFinite(x []float64) bool {
	i := 0
	if useAVX || useAVX512 {
		if v := len(x) &^ 7; v > 0 {
			if !allFiniteAVX(&x[0], v) {
				return false
			}
			i = v
		}
	}
	return allFiniteTailG(x, i)
}

// AllFinite32 is AllFinite over float32 elements.
func AllFinite32(x []float32) bool {
	i := 0
	if useAVX || useAVX512 {
		if v := len(x) &^ 15; v > 0 {
			if !allFiniteAVXF32(&x[0], v) {
				return false
			}
			i = v
		}
	}
	return allFiniteTailG(x, i)
}

// checkScreen panics unless a screen of n lanes over k rows at the
// given stride stays inside its block and mask: the vector bodies read
// and write through raw pointers.
func checkScreen(maskLen, blockLen, stride, k, n int) {
	if n < 0 || k < 0 || stride < n || maskLen < (n+7)/8 || (k > 0 && blockLen < (k-1)*stride+n) {
		panic(fmt.Sprintf("tensor: screen of %d lanes × %d rows at stride %d over a block of %d and a mask of %d bytes",
			n, k, stride, blockLen, maskLen))
	}
}
