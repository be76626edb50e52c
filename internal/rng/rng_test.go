package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical outputs", same)
	}
}

func TestZeroSeedNonDegenerate(t *testing.T) {
	r := New(0)
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		seen[r.Uint64()] = true
	}
	if len(seen) < 100 {
		t.Fatalf("zero seed produced repeated outputs: %d distinct of 100", len(seen))
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	child := parent.Split()
	// Child and parent should not emit the same sequence.
	a, b := parent.Uint64(), child.Uint64()
	if a == b {
		t.Fatal("split stream mirrors parent")
	}
	// Splitting is deterministic given the parent state.
	p2 := New(7)
	c2 := p2.Split()
	c1 := New(7).Split()
	if c1.Uint64() != c2.Uint64() {
		t.Fatal("split is not deterministic")
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(11)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(5)
	counts := make([]int, 7)
	for i := 0; i < 70000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
		counts[v]++
	}
	for i, c := range counts {
		if c < 8500 || c > 11500 {
			t.Fatalf("Intn bucket %d count %d badly unbalanced", i, c)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestNormMoments(t *testing.T) {
	r := New(17)
	const n = 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		x := r.Norm()
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("normal variance = %v, want ~1", variance)
	}
}

func TestNormalShiftScale(t *testing.T) {
	r := New(23)
	const n = 100000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		x := r.Normal(3, 2)
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean-3) > 0.05 {
		t.Fatalf("mean = %v, want ~3", mean)
	}
	if math.Abs(variance-4) > 0.15 {
		t.Fatalf("variance = %v, want ~4", variance)
	}
}

func TestNormalZeroSigma(t *testing.T) {
	r := New(1)
	if got := r.Normal(5, 0); got != 5 {
		t.Fatalf("Normal(5,0) = %v, want 5", got)
	}
	if got := r.Normal(5, -0.0); got != 5 {
		t.Fatalf("Normal(5,-0) = %v, want 5", got)
	}
}

func TestGammaMoments(t *testing.T) {
	// Gamma(k) has mean k and variance k.
	for _, k := range []float64{0.5, 1, 2.5, 9} {
		r := New(uint64(100 + int(k*10)))
		const n = 100000
		sum, sumSq := 0.0, 0.0
		for i := 0; i < n; i++ {
			x := r.Gamma(k)
			if x < 0 {
				t.Fatalf("Gamma(%v) produced negative %v", k, x)
			}
			sum += x
			sumSq += x * x
		}
		mean := sum / n
		variance := sumSq/n - mean*mean
		if math.Abs(mean-k) > 0.05*k+0.02 {
			t.Fatalf("Gamma(%v) mean = %v", k, mean)
		}
		if math.Abs(variance-k) > 0.1*k+0.05 {
			t.Fatalf("Gamma(%v) variance = %v", k, variance)
		}
	}
	for _, k := range []float64{0, -1, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Gamma(%v) did not panic", k)
				}
			}()
			New(1).Gamma(k)
		}()
	}
}

func TestDirichletSimplex(t *testing.T) {
	r := New(31)
	alpha := []float64{0.5, 1, 2, 0.1}
	for i := 0; i < 1000; i++ {
		p := r.Dirichlet(alpha)
		sum := 0.0
		for _, v := range p {
			if v < 0 {
				t.Fatalf("negative Dirichlet component %v", v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("Dirichlet sum = %v", sum)
		}
	}
}

func TestDirichletMean(t *testing.T) {
	r := New(37)
	alpha := []float64{1, 2, 3}
	const n = 50000
	mean := make([]float64, 3)
	for i := 0; i < n; i++ {
		p := r.Dirichlet(alpha)
		for j, v := range p {
			mean[j] += v
		}
	}
	want := []float64{1.0 / 6, 2.0 / 6, 3.0 / 6}
	for j := range mean {
		mean[j] /= n
		if math.Abs(mean[j]-want[j]) > 0.01 {
			t.Fatalf("Dirichlet mean[%d] = %v, want %v", j, mean[j], want[j])
		}
	}
}

func TestPowerLawWeights(t *testing.T) {
	r := New(41)
	w := r.PowerLawWeights(10, 1.5)
	sum := 0.0
	maxW, minW := 0.0, math.Inf(1)
	for _, v := range w {
		if v <= 0 {
			t.Fatalf("non-positive weight %v", v)
		}
		sum += v
		maxW = math.Max(maxW, v)
		minW = math.Min(minW, v)
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("weights sum = %v", sum)
	}
	if maxW/minW < 5 {
		t.Fatalf("power law with alpha=1.5 over 10 ranks should be skewed; max/min = %v", maxW/minW)
	}
	// alpha = 0 must be uniform.
	u := r.PowerLawWeights(4, 0)
	for _, v := range u {
		if math.Abs(v-0.25) > 1e-12 {
			t.Fatalf("alpha=0 weight = %v, want 0.25", v)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	if err := quick.Check(func(seed uint64, nRaw uint8) bool {
		n := int(nRaw)%50 + 1
		p := New(seed).Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestChoose(t *testing.T) {
	r := New(53)
	c := r.Choose(10, 4)
	if len(c) != 4 {
		t.Fatalf("Choose returned %d elements", len(c))
	}
	seen := map[int]bool{}
	for _, v := range c {
		if v < 0 || v >= 10 || seen[v] {
			t.Fatalf("Choose invalid or duplicate element %d", v)
		}
		seen[v] = true
	}
	if got := r.Choose(3, 3); len(got) != 3 {
		t.Fatalf("Choose(3,3) len = %d", len(got))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Choose(2,3) did not panic")
		}
	}()
	r.Choose(2, 3)
}

func TestExpMean(t *testing.T) {
	r := New(59)
	const n = 100000
	sum := 0.0
	for i := 0; i < n; i++ {
		x := r.Exp()
		if x < 0 {
			t.Fatalf("negative exponential deviate %v", x)
		}
		sum += x
	}
	if mean := sum / n; math.Abs(mean-1) > 0.02 {
		t.Fatalf("exponential mean = %v, want ~1", mean)
	}
}

func TestPermIntoMatchesPerm(t *testing.T) {
	// PermInto must consume the random stream exactly like Perm so the
	// two are interchangeable on hot paths without perturbing results.
	for _, n := range []int{0, 1, 2, 7, 64} {
		a, b := New(uint64(n)+11), New(uint64(n)+11)
		want := a.Perm(n)
		got := make([]int, n)
		b.PermInto(got)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d: PermInto[%d]=%d, Perm[%d]=%d", n, i, got[i], i, want[i])
			}
		}
		// Downstream draws must agree too.
		if a.Uint64() != b.Uint64() {
			t.Fatalf("n=%d: stream diverged after permutation", n)
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkNorm(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Norm()
	}
}
