package tensor

import (
	"fmt"
	"math"
	"testing"

	"feddrl/internal/rng"
)

// fillRandom populates t with Normal(0,1) deviates, including exact
// zeros sprinkled in (the post-ReLU activation pattern the old kernels
// special-cased) so the bit-identity matrix also covers signed-zero
// arithmetic.
func fillRandom(t *Tensor, r *rng.RNG) {
	for i := range t.Data {
		if r.Intn(8) == 0 {
			t.Data[i] = 0
		} else {
			t.Data[i] = r.Normal(0, 1)
		}
	}
}

// gemmOperands builds the variant's physical operand shapes for a
// logical M×K×N product.
func gemmOperands(v gemmVariant, m, k, n int) (a, b, dst *Tensor) {
	switch v {
	case gemmAT:
		return New(k, m), New(k, n), New(m, n)
	case gemmBT:
		return New(m, k), New(n, k), New(m, n)
	default:
		return New(m, k), New(k, n), New(m, n)
	}
}

// restoreBackend snapshots the active kernel backend and re-installs it
// when the test finishes, so tests can walk the fallback chain freely.
func restoreBackend(t *testing.T) {
	t.Helper()
	orig := KernelBackend()
	t.Cleanup(func() {
		if err := SetBackend(orig); err != nil {
			t.Fatalf("restoring backend %q: %v", orig, err)
		}
	})
}

// gemmVariants names the three GEMM variants for subtest IDs.
var gemmVariants = []struct {
	name string
	v    gemmVariant
}{{"NN", gemmNN}, {"AT", gemmAT}, {"BT", gemmBT}}

// gemmBlockedForced runs the blocked kernel over every row of dst,
// whatever the dispatch threshold would pick.
func gemmBlockedForced(dst, a, b *Tensor, v gemmVariant) {
	m, k, n := gemmDims(a, b, v)
	apN, bpN := scratchSizes(m, k, n, v)
	ap, bp := getBuf(apN), getBuf(bpN)
	gemmBlockedRange(dst, a, b, v, 0, m, ap, bp)
	putBuf(bp)
	putBuf(ap)
}

// gemmPublic runs the variant's exported entry point.
func gemmPublic(dst, a, b *Tensor, v gemmVariant) {
	switch v {
	case gemmAT:
		MatMulATInto(dst, a, b)
	case gemmBT:
		MatMulBTInto(dst, a, b)
	default:
		MatMulInto(dst, a, b)
	}
}

// stepGEMMs are the logical M×K×N products of a client train step on
// the benchmark workloads and of the agent's update: the simple CNN's
// two convolutions at batch 10 (forward, weight gradient, input
// gradient), the batch-8 MLP's layers, the table3 grid's batch-10 MLP
// layers on mnist-sim and cifar100-sim (forward, dW, dx), the agent's
// batch-32 update and its K=10 policy head, a Table 1 (K=16) agent's
// first layer on a 60-row batch, and a K=16 reprioritization chunk of
// 67 experiences. Each reduction fits one panel, so on the amd64 SIMD
// tiers the blocked kernel reads these operands in place, with strides
// that differ from the tile width, and most end in edge tiles.
var stepGEMMs = [][3]int{
	{640, 9, 8}, {160, 72, 16}, {72, 160, 16}, {160, 16, 72},
	{8, 64, 256}, {64, 8, 256}, {8, 256, 64}, {8, 256, 128}, {8, 128, 256}, {256, 8, 128},
	{10, 64, 48}, {64, 10, 48}, {10, 48, 64},
	{10, 192, 48}, {192, 10, 48}, {10, 48, 192},
	{10, 48, 100}, {48, 10, 100}, {10, 100, 48},
	{32, 128, 128}, {32, 128, 20},
	{60, 48, 256},
	{134, 80, 128},
}

// TestBlockedBitIdentity is the kernel determinism gate (run explicitly
// by scripts/verify.sh, including a TENSOR_BACKEND=generic pass): for
// all three GEMM variants and every backend in the host's fallback
// chain (each wider tier force-disabled in turn down to generic), the
// blocked kernel must reproduce the naive triple loop BIT for bit
// across shapes chosen to straddle every tile and block boundary —
// 1×1, primes, exact 4- and 8-wide tile multiples, one-off-the-tile,
// tall/skinny and wide/flat — and at the workloads' train-step
// products (stepGEMMs).
func TestBlockedBitIdentity(t *testing.T) {
	shapes := append([][3]int{
		{1, 1, 1},
		{1, 7, 1},
		{3, 5, 2},
		{4, kcBlock, 4},     // exact 4-wide tile, one full k panel
		{8, kcBlock, 8},     // exact 8-wide (avx512) tile
		{5, kcBlock + 1, 5}, // one past the 4-wide tile and panel
		{9, kcBlock + 1, 9}, // one past the 8-wide tile and panel
		{7, kcBlock - 1, 7}, // one short of the 8-wide tile and panel
		{13, 17, 11},
		{mcBlock, 31, 12},
		{mcBlock + 3, kcBlock*2 + 5, 9},
		{257, 19, 23},   // tall/skinny, prime rows
		{5, 23, 129},    // wide/flat
		{2, 300, 2},     // k spans two panels with tiny tiles
		{131, 131, 131}, // primes straddling every block
		{20, 40, 44},    // edge rows and edge columns in one panel
	}, stepGEMMs...)
	restoreBackend(t)
	chain := Backends()
	for _, bk := range chain {
		if err := SetBackend(bk); err != nil {
			t.Fatalf("SetBackend(%q): %v", bk, err)
		}
		for _, vt := range gemmVariants {
			for _, sh := range shapes {
				m, k, n := sh[0], sh[1], sh[2]
				t.Run(fmt.Sprintf("%s_%s_%dx%dx%d", bk, vt.name, m, k, n), func(t *testing.T) {
					r := rng.New(uint64(m*1000003 + k*1009 + n))
					a, b, got := gemmOperands(vt.v, m, k, n)
					fillRandom(a, r)
					fillRandom(b, r)
					want := New(m, n)
					gemmNaive(want, a, b, vt.v)

					gemmBlockedForced(got, a, b, vt.v)
					for i := range got.Data {
						if got.Data[i] != want.Data[i] {
							t.Fatalf("blocked[%d] = %x, naive = %x", i, got.Data[i], want.Data[i])
						}
					}

					// The public entry (whatever path it dispatches to) must
					// agree too.
					pub := New(m, n)
					gemmPublic(pub, a, b, vt.v)
					for i := range pub.Data {
						if pub.Data[i] != want.Data[i] {
							t.Fatalf("dispatch[%d] = %x, naive = %x", i, pub.Data[i], want.Data[i])
						}
					}
				})
			}
		}
	}
	// The chain always ends at generic, so every wider tier the host (or
	// the TENSOR_BACKEND override) exposes was also run force-disabled.
	if chain[len(chain)-1] != "generic" {
		t.Fatalf("fallback chain %v does not end at generic", chain)
	}
}

// TestBlockedRangeStaysInStripe runs the blocked kernel over row
// stripes of one product, as the parallel path cuts them, on every
// backend: each stripe must write exactly its own rows, bit-identical
// to the naive loop, and leave every other row as it was. The stripes
// end in partial tiles, which the amd64 SIMD tiers shift back inside
// the stripe when the operand lies in place (one panel) and compute
// through the padded tile when it is packed (two panels), and include
// stripes shorter than one tile.
func TestBlockedRangeStaysInStripe(t *testing.T) {
	restoreBackend(t)
	const sentinel = -7.25
	m, n := 45, 21
	for _, bk := range Backends() {
		if err := SetBackend(bk); err != nil {
			t.Fatalf("SetBackend(%q): %v", bk, err)
		}
		for _, c := range []struct {
			name string
			v    gemmVariant
			k    int
		}{{"NN", gemmNN, 40}, {"AT", gemmAT, 40}, {"BT", gemmBT, 40}, {"NN", gemmNN, kcBlock + 9}, {"AT", gemmAT, kcBlock + 9}} {
			k := c.k
			r := rng.New(11)
			a, b, dst := gemmOperands(c.v, m, k, n)
			fillRandom(a, r)
			fillRandom(b, r)
			want := New(m, n)
			gemmNaive(want, a, b, c.v)
			for _, sr := range [][2]int{{0, 45}, {0, 13}, {13, 30}, {30, 33}, {33, 45}, {44, 45}, {3, 10}} {
				rs, re := sr[0], sr[1]
				for i := range dst.Data {
					dst.Data[i] = sentinel
				}
				apN, bpN := scratchSizes(m, k, n, c.v)
				ap, bp := getBuf(apN), getBuf(bpN)
				gemmBlockedRange(dst, a, b, c.v, rs, re, ap, bp)
				putBuf(bp)
				putBuf(ap)
				for i := 0; i < m; i++ {
					for j := 0; j < n; j++ {
						got, w := dst.Data[i*n+j], want.Data[i*n+j]
						if i < rs || i >= re {
							w = sentinel
						}
						if math.Float64bits(got) != math.Float64bits(w) {
							t.Fatalf("%s %s k=%d rows [%d,%d): dst[%d][%d] = %x, want %x", bk, c.name, k, rs, re, i, j, got, w)
						}
					}
				}
			}
		}
	}
}

// fillGEMMSpecials populates x with adversarial GEMM inputs, one
// special value in 16: ±0, ±Inf, ±1, the smallest denormals and two
// NaN payloads, the x86 indefinite (0xfff8000000000000, what Inf·0 and
// Inf−Inf produce) and 0x7ff8000000000001 (what math.NaN returns).
func fillGEMMSpecials(x []float64, r *rng.RNG) {
	specials := []float64{
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), 1, -1,
		math.Float64frombits(1), math.Float64frombits(0x8000000000000001),
		math.Float64frombits(0xfff8000000000000), math.Float64frombits(0x7ff8000000000001),
	}
	for i := range x {
		if r.Intn(16) == 0 {
			x[i] = specials[r.Intn(len(specials))]
		} else {
			x[i] = r.Normal(0, 1)
		}
	}
}

// sameBitsUpToNaN fails unless got equals want bit for bit wherever want
// is not NaN, and is NaN wherever want is.
func sameBitsUpToNaN(t *testing.T, tag string, got, want []float64) {
	t.Helper()
	for i, w := range want {
		g := got[i]
		if math.IsNaN(w) && !math.IsNaN(g) || !math.IsNaN(w) && math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%s[%d] = %#x, naive = %#x", tag, i, math.Float64bits(g), math.Float64bits(w))
		}
	}
}

// TestBlockedSpecialValues drives the f64 GEMM with NaN, ±Inf, signed
// zeros and denormals under every backend, for all three variants, and
// checks what the determinism contract promises for them: every output
// the naive loop leaves non-NaN matches it bit for bit, and every NaN
// output stays NaN. A NaN's payload is not promised. When an addition
// meets two NaNs, x86 returns the payload of the operand in a fixed
// position, and the naive loops, the portable tile and the SIMD tiles
// do not all hold the accumulator in the same position. So an output
// with two NaN terms can carry a different payload from the blocked
// kernel than from the naive loop, and the public entries pick between
// them by volume: 16×80×16 runs the blocked kernel, 16×40×16 the naive
// loop.
func TestBlockedSpecialValues(t *testing.T) {
	restoreBackend(t)
	shapes := [][3]int{{9, 33, 17}, {16, kcBlock + 3, 32}, {5, 70, 11}, {16, 80, 16}}
	for _, bk := range Backends() {
		if err := SetBackend(bk); err != nil {
			t.Fatalf("SetBackend(%q): %v", bk, err)
		}
		for _, vt := range gemmVariants {
			for _, sh := range shapes {
				m, k, n := sh[0], sh[1], sh[2]
				t.Run(fmt.Sprintf("%s_%s_%dx%dx%d", bk, vt.name, m, k, n), func(t *testing.T) {
					r := rng.New(uint64(m*2718 + k*31 + n))
					a, b, got := gemmOperands(vt.v, m, k, n)
					fillGEMMSpecials(a.Data, r)
					fillGEMMSpecials(b.Data, r)
					want := New(m, n)
					gemmNaive(want, a, b, vt.v)
					gemmBlockedForced(got, a, b, vt.v)
					sameBitsUpToNaN(t, "blocked", got.Data, want.Data)
					pub := New(m, n)
					gemmPublic(pub, a, b, vt.v)
					sameBitsUpToNaN(t, "dispatch", pub.Data, want.Data)
				})
			}
		}
	}
}

// stubPool is a deterministic Parallel implementation that runs tasks
// inline but reports several lanes, driving the stripe-partitioned path.
type stubPool struct{ workers int }

func (s *stubPool) Workers() int { return s.workers }
func (s *stubPool) ForWorker(n int, task func(worker, i int)) {
	for i := 0; i < n; i++ {
		task(i%s.workers, i)
	}
}

// TestParallelStripesBitIdentical drives the pool-hook path at several
// widths, for every backend in the fallback chain, and checks the
// stripe decomposition changes nothing.
func TestParallelStripesBitIdentical(t *testing.T) {
	defer SetParallel(nil)
	restoreBackend(t)
	r := rng.New(7)
	m, k, n := stripeRows*3+17, 70, 40
	a, b := New(m, k), New(k, n)
	fillRandom(a, r)
	fillRandom(b, r)
	want := New(m, n)
	SetParallel(nil)
	MatMulInto(want, a, b)
	for _, bk := range Backends() {
		if err := SetBackend(bk); err != nil {
			t.Fatalf("SetBackend(%q): %v", bk, err)
		}
		for _, w := range []int{2, 3, 8} {
			SetParallel(&stubPool{workers: w})
			got := New(m, n)
			MatMulInto(got, a, b)
			for i := range got.Data {
				if got.Data[i] != want.Data[i] {
					t.Fatalf("%s workers=%d: [%d] = %x, want %x", bk, w, i, got.Data[i], want.Data[i])
				}
			}
		}
		SetParallel(nil)
	}
}

// TestIm2ColBatchMatchesPerSample checks the whole-batch lowering is
// exactly each sample's one-row lowering stacked, and that Col2ImBatch
// is the one-row adjoint applied per row block.
func TestIm2ColBatchMatchesPerSample(t *testing.T) {
	g := ConvGeom{InC: 2, InH: 5, InW: 4, K: 3, Stride: 1, Pad: 1}
	batch := 3
	r := rng.New(11)
	x := New(batch, g.InC*g.InH*g.InW)
	fillRandom(x, r)
	ohw := g.OutH() * g.OutW()
	patch := g.InC * g.K * g.K
	cols := New(batch*ohw, patch)
	Im2ColBatch(g, x, cols)
	single := New(ohw, patch)
	for i := 0; i < batch; i++ {
		Im2ColBatch(g, FromSlice(x.Row(i), 1, x.Cols()), single)
		for j, v := range single.Data {
			if cols.Data[i*ohw*patch+j] != v {
				t.Fatalf("sample %d element %d: batch %v, single %v", i, j, cols.Data[i*ohw*patch+j], v)
			}
		}
	}

	grad := New(batch*ohw, patch)
	fillRandom(grad, r)
	imgs := New(batch, g.InC*g.InH*g.InW)
	Col2ImBatch(g, grad, imgs)
	for i := 0; i < batch; i++ {
		ref := make([]float64, g.InC*g.InH*g.InW)
		gi := FromSlice(grad.Data[i*ohw*patch:(i+1)*ohw*patch], ohw, patch)
		Col2ImBatch(g, gi, FromSlice(ref, 1, len(ref)))
		for j, v := range ref {
			if imgs.At(i, j) != v {
				t.Fatalf("sample %d grad element %d: batch %v, single %v", i, j, imgs.At(i, j), v)
			}
		}
	}
}

// TestKernelScratchReuse pins the allocation-free property of the
// kernels themselves: warm MatMul*Into calls must not allocate.
func TestKernelScratchReuse(t *testing.T) {
	r := rng.New(3)
	m, k, n := 160, 96, 32
	a, b := New(m, k), New(k, n)
	at, bt := New(k, m), New(n, k)
	fillRandom(a, r)
	fillRandom(b, r)
	fillRandom(at, r)
	fillRandom(bt, r)
	dst := New(m, n)
	step := func() {
		MatMulInto(dst, a, b)
		MatMulATInto(dst, at, b)
		MatMulBTInto(dst, a, bt)
	}
	step() // populate the scratch pool
	if allocs := testing.AllocsPerRun(10, step); allocs != 0 {
		t.Fatalf("warm blocked kernels allocate %.1f times per run, want 0", allocs)
	}
}

func benchGEMMPair(b *testing.B, m, k, n int) {
	r := rng.New(1)
	a, bb := New(m, k), New(k, n)
	fillRandom(a, r)
	fillRandom(bb, r)
	dst := New(m, n)
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			gemmNaive(dst, a, bb, gemmNN)
		}
	})
	b.Run("blocked", func(b *testing.B) {
		apN, bpN := scratchSizes(m, k, n, gemmNN)
		ap, bp := getBuf(apN), getBuf(bpN)
		defer putBuf(ap)
		defer putBuf(bp)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			gemmBlockedRange(dst, a, bb, gemmNN, 0, m, ap, bp)
		}
	})
}

// BenchmarkGEMMShapes times the public GEMM entries at the products
// the cnn-feddrl-ce and byz-async-f32 workloads issue, one
// sub-benchmark per variant and shape, and reports GFLOP/s: the train
// step's products (stepGEMMs), the batch-60 and batch-128 evaluation
// forwards, and 256³ for reference, the largest one-panel product.
func BenchmarkGEMMShapes(b *testing.B) {
	shapes := append(append([][3]int(nil), stepGEMMs...),
		[3]int{3840, 9, 8}, [3]int{960, 72, 16}, [3]int{128, 64, 256}, [3]int{128, 256, 128},
		[3]int{256, 256, 256})
	for _, vt := range gemmVariants {
		for _, sh := range shapes {
			m, k, n := sh[0], sh[1], sh[2]
			b.Run(fmt.Sprintf("%s/%dx%dx%d", vt.name, m, k, n), func(b *testing.B) {
				r := rng.New(1)
				a, bb, dst := gemmOperands(vt.v, m, k, n)
				fillRandom(a, r)
				fillRandom(bb, r)
				gemmPublic(dst, a, bb, vt.v)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					gemmPublic(dst, a, bb, vt.v)
				}
				b.ReportMetric(2*float64(m*k*n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
			})
		}
	}
}

func BenchmarkGEMM256(b *testing.B)     { benchGEMMPair(b, 256, 256, 256) }
func BenchmarkGEMM512(b *testing.B)     { benchGEMMPair(b, 512, 512, 512) }
func BenchmarkGEMMConvVGG(b *testing.B) { benchGEMMPair(b, 2560, 288, 32) }
