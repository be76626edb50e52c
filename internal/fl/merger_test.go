package fl

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"reflect"
	"sort"
	"testing"

	"feddrl/internal/engine"
	"feddrl/internal/rng"
	"feddrl/internal/tensor"
)

// The merger suite: every Merger must be a pure function of
// (updates, alpha) — bit-identical at any pool width including nil —
// the default WeightedMerge must be byte-identical to the naive Eq. 4
// fold, and the order-statistic rules must match their naive sequential
// references.

// mergeCohort builds k random updates of the given dimension, plus
// convex sample-count-proportional factors, in both widths.
func mergeCohort(k, dim int, seed uint64) ([]Update, []float64) {
	r := rng.New(seed)
	updates := make([]Update, k)
	alpha := make([]float64, k)
	total := 0.0
	for i := range updates {
		w := make([]float64, dim)
		for c := range w {
			w[c] = r.Norm()
		}
		updates[i] = Update{
			ClientID:  i,
			N:         10 + i,
			Weights:   w,
			Weights32: tensor.Quantize(nil, w),
		}
		alpha[i] = float64(updates[i].N)
		total += alpha[i]
	}
	for i := range alpha {
		alpha[i] /= total
	}
	return updates, alpha
}

// TestWeightedMergeMatchesAggregate: the explicit default merger (and a
// nil Merger through mergeP) must reproduce the naive k-ordered fold
// byte for byte — the compatibility contract that keeps historical runs
// and cached cells valid.
func TestWeightedMergeMatchesAggregate(t *testing.T) {
	updates, alpha := mergeCohort(5, 4097, 3)
	want := naiveAggregate(updates, alpha)
	for _, got := range [][]float64{
		WeightedMerge{}.Merge(updates, alpha, nil),
		mergeP(F64, nil, updates, alpha, nil),
		mergeP(F64, WeightedMerge{}, updates, alpha, nil),
	} {
		if len(got) != len(want) {
			t.Fatalf("dim %d, want %d", len(got), len(want))
		}
		for i := range want {
			if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
				t.Fatalf("coordinate %d differs bitwise from the naive fold", i)
			}
		}
	}
}

// TestMedianMerge pins the coordinate-wise median on hand-checked odd
// and even cohorts.
func TestMedianMerge(t *testing.T) {
	mk := func(vals ...float64) Update {
		return Update{Weights: vals, Weights32: tensor.Quantize(nil, vals)}
	}
	odd := []Update{mk(1, -9), mk(5, 0), mk(100, 3)}
	alpha := []float64{0.2, 0.3, 0.5}
	got := Median{}.Merge(odd, alpha, nil)
	if got[0] != 5 || got[1] != 0 {
		t.Fatalf("odd-cohort median = %v, want [5 0]", got)
	}
	even := append(odd, mk(7, 1))
	got = Median{}.Merge(even, []float64{0.25, 0.25, 0.25, 0.25}, nil)
	if got[0] != 6 || got[1] != 0.5 {
		t.Fatalf("even-cohort median = %v, want [6 0.5]", got)
	}
	got32 := Median{}.Merge32(even, []float64{0.25, 0.25, 0.25, 0.25}, nil)
	if got32[0] != 6 || got32[1] != 0.5 {
		t.Fatalf("f32 even-cohort median = %v, want [6 0.5]", got32)
	}
}

// TestTrimmedMeanMerge pins the β-trim on a known cohort and checks the
// clamp that guarantees at least one surviving value.
func TestTrimmedMeanMerge(t *testing.T) {
	updates := []Update{
		{Weights: []float64{-1000}}, {Weights: []float64{1}},
		{Weights: []float64{2}}, {Weights: []float64{3}},
		{Weights: []float64{1000}},
	}
	alpha := []float64{0.2, 0.2, 0.2, 0.2, 0.2}
	got := TrimmedMean{Beta: 0.2}.Merge(updates, alpha, nil)
	if got[0] != 2 {
		t.Fatalf("trimmed mean = %v, want 2 (outliers dropped)", got[0])
	}
	// β ≥ 0.5 would trim everything; the clamp must keep the middle,
	// also for β so large that β·k overflows an int.
	for _, beta := range []float64{0.9, 1e300, math.Inf(1)} {
		got = TrimmedMean{Beta: beta}.Merge(updates, alpha, nil)
		if got[0] != 2 {
			t.Fatalf("over-trimmed mean (β=%v) = %v, want 2", beta, got[0])
		}
	}
	for k := 1; k <= 7; k++ {
		for _, beta := range []float64{-1, 0, 0.2, 0.49, 0.5, 3, math.NaN(), 1e300, math.Inf(1)} {
			n := TrimmedMean{Beta: beta}.trimCount(k)
			if n < 0 || 2*n >= k {
				t.Fatalf("trimCount(β=%v, k=%d) = %d leaves no survivors", beta, k, n)
			}
		}
	}
}

// TestKrumMerge: with one far outlier among a tight benign cluster,
// Krum must select a benign update and return a private copy of it.
func TestKrumMerge(t *testing.T) {
	updates := []Update{
		{ClientID: 0, Weights: []float64{1.0, 1.0}},
		{ClientID: 1, Weights: []float64{1.1, 0.9}},
		{ClientID: 2, Weights: []float64{500, -500}}, // Byzantine
		{ClientID: 3, Weights: []float64{0.9, 1.1}},
		{ClientID: 4, Weights: []float64{1.05, 1.0}},
	}
	alpha := []float64{0.2, 0.2, 0.2, 0.2, 0.2}
	got := Krum{F: 1}.Merge(updates, alpha, nil)
	if got[0] > 2 || got[0] < 0 {
		t.Fatalf("Krum selected the outlier: %v", got)
	}
	matched := -1
	for i, u := range updates {
		if u.Weights[0] == got[0] && u.Weights[1] == got[1] {
			matched = i
		}
	}
	if matched < 0 || matched == 2 {
		t.Fatalf("Krum result matches update %d", matched)
	}
	got[0] = math.NaN()
	if math.IsNaN(updates[matched].Weights[0]) {
		t.Fatal("Krum returned the update's own backing array, not a copy")
	}
}

// TestKrumPairIndexRoundTrip: the packed-triangle codec behind the
// parallel distance fill must be a bijection.
func TestKrumPairIndexRoundTrip(t *testing.T) {
	for _, n := range []int{2, 3, 5, 9} {
		seen := map[int]bool{}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				p := pairIndex(n, i, j)
				if p != pairIndex(n, j, i) {
					t.Fatalf("pairIndex(%d,%d,%d) not symmetric", n, i, j)
				}
				if seen[p] {
					t.Fatalf("n=%d: duplicate flat index %d", n, p)
				}
				seen[p] = true
				gi, gj := pairFromIndex(n, p)
				if gi != i || gj != j {
					t.Fatalf("pairFromIndex(%d,%d) = (%d,%d), want (%d,%d)", n, p, gi, gj, i, j)
				}
			}
		}
		if len(seen) != n*(n-1)/2 {
			t.Fatalf("n=%d: %d flat indices, want %d", n, len(seen), n*(n-1)/2)
		}
	}
}

// TestMergerPoolWidthInvariance: every merger, both widths, over a
// dimension spanning multiple aggSegment spans, must produce identical
// bytes with no pool and with pools of 2, 4 and 8 lanes.
func TestMergerPoolWidthInvariance(t *testing.T) {
	updates, alpha := mergeCohort(6, 2*aggSegment+37, 7)
	mergers := []Merger{WeightedMerge{}, Median{}, TrimmedMean{Beta: 0.2}, Krum{F: 1}}
	for _, m := range mergers {
		want := m.Merge(updates, alpha, nil)
		want32 := m.Merge32(updates, alpha, nil)
		for _, workers := range []int{2, 4, 8} {
			pool := engine.New(workers)
			got := m.Merge(updates, alpha, pool)
			got32 := m.Merge32(updates, alpha, pool)
			pool.Close()
			for i := range want {
				if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
					t.Fatalf("%s: workers=%d coordinate %d differs bitwise", m.Name(), workers, i)
				}
			}
			for i := range want32 {
				if math.Float32bits(want32[i]) != math.Float32bits(got32[i]) {
					t.Fatalf("%s: workers=%d f32 coordinate %d differs bitwise", m.Name(), workers, i)
				}
			}
		}
	}
}

// TestMergerValidation: zero cohorts, factor-count mismatches, ragged
// dimensions and a cohort that lacks the merge's width must panic
// exactly like the weighted merge.
func TestMergerValidation(t *testing.T) {
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	expectPanic("empty cohort", func() { Median{}.Merge(nil, nil, nil) })
	one := []Update{{Weights: []float64{1}}}
	expectPanic("factor mismatch", func() { Median{}.Merge(one, []float64{0.5, 0.5}, nil) })
	ragged := []Update{{Weights: []float64{1, 2}}, {Weights: []float64{1}}}
	expectPanic("ragged dims", func() { TrimmedMean{}.Merge(ragged, []float64{0.5, 0.5}, nil) })
	expectPanic("ragged dims f32", func() {
		Krum{F: 1}.Merge32([]Update{{Weights32: []float32{1, 2}}, {Weights32: []float32{1}}}, []float64{0.5, 0.5}, nil)
	})
	// A merge at one width of a cohort that carries only the other must
	// not return an empty model.
	only32 := []Update{{Weights32: []float32{1, 2}}, {Weights32: []float32{3, 4}}}
	only64 := []Update{{Weights: []float64{1, 2}}, {Weights: []float64{3, 4}}}
	half := []float64{0.5, 0.5}
	for _, m := range []Merger{WeightedMerge{}, Median{}, TrimmedMean{Beta: 0.2}, Krum{F: 1}} {
		expectPanic(m.Name()+" Merge of f32 uploads", func() { m.Merge(only32, half, nil) })
		expectPanic(m.Name()+" Merge32 of f64 uploads", func() { m.Merge32(only64, half, nil) })
	}
	// A NaN impact factor fails both the sign and the sum test, at
	// either width: it must not reach the fold as a NaN model.
	for _, alpha := range [][]float64{{math.NaN(), 1}, {math.NaN(), math.NaN()}, {0.5, math.NaN()}} {
		expectPanic(fmt.Sprintf("weighted Merge with factors %v", alpha), func() { WeightedMerge{}.Merge(only64, alpha, nil) })
		expectPanic(fmt.Sprintf("weighted Merge32 with factors %v", alpha), func() { WeightedMerge{}.Merge32(only32, alpha, nil) })
	}
}

// TestParseMerger covers the CLI resolution table, including Krum's
// fraction-derived tolerance and the nil zero value.
func TestParseMerger(t *testing.T) {
	if m, err := ParseMerger("", 0, 10); err != nil || m != nil {
		t.Fatalf(`ParseMerger("") = %v, %v; want nil, nil`, m, err)
	}
	if m, err := ParseMerger("weighted", 0, 10); err != nil || m.Name() != "weighted" {
		t.Fatalf("weighted: %v, %v", m, err)
	}
	if m, err := ParseMerger("median", 0, 10); err != nil || m.Name() != "median" {
		t.Fatalf("median: %v, %v", m, err)
	}
	if m, err := ParseMerger("trimmed", 0, 10); err != nil || m.(TrimmedMean).Beta != 0.2 {
		t.Fatalf("trimmed: %v, %v", m, err)
	}
	if m, err := ParseMerger("trimmed", 0.3, 10); err != nil || m.(TrimmedMean).Beta != 0.4 {
		t.Fatalf("trimmed tracks the fraction: %v, %v", m, err)
	}
	if m, err := ParseMerger("trimmed", 0.9, 10); err != nil || m.(TrimmedMean).Beta != 0.45 {
		t.Fatalf("trimmed cap: %v, %v", m, err)
	}
	if m, err := ParseMerger("krum", 0.3, 10); err != nil || m.(Krum).F != 3 {
		t.Fatalf("krum at 30%% of 10: %v, %v", m, err)
	}
	if m, err := ParseMerger("krum", 0, 10); err != nil || m.(Krum).F != 1 {
		t.Fatalf("krum floor: %v, %v", m, err)
	}
	if _, err := ParseMerger("nope", 0, 10); err == nil {
		t.Fatal("unknown merger did not error")
	}
}

// refMerger is the historical per-coordinate implementation of Median
// and TrimmedMean, kept as the bit-exact reference for orderStat: each
// coordinate gathers its k values in update order and sorts them with
// sort.Float64s, or for f32 with sort.Slice under a NaN-first order.
type refMerger struct{ rule Merger } // Median or TrimmedMean

func (r refMerger) Name() string { return r.rule.Name() + "-ref" }

func (r refMerger) Merge(updates []Update, alpha []float64, _ *engine.Pool) []float64 {
	vecs := mergeVecs[float64](updates, alpha)
	out := make([]float64, len(vecs[0]))
	vals := make([]float64, len(vecs))
	for c := range out {
		for i, v := range vecs {
			vals[i] = v[c]
		}
		sort.Float64s(vals)
		k := len(vals)
		if t, ok := r.rule.(TrimmedMean); ok {
			n := t.trimCount(k)
			var sum float64
			for _, v := range vals[n : k-n] {
				sum += v
			}
			out[c] = sum / float64(k-2*n)
		} else if k%2 == 1 {
			out[c] = vals[k/2]
		} else {
			out[c] = (vals[k/2-1] + vals[k/2]) / 2
		}
	}
	return out
}

func (r refMerger) Merge32(updates []Update, alpha []float64, _ *engine.Pool) []float32 {
	vecs := mergeVecs[float32](updates, alpha)
	out := make([]float32, len(vecs[0]))
	vals := make([]float32, len(vecs))
	for c := range out {
		for i, v := range vecs {
			vals[i] = v[c]
		}
		sort.Slice(vals, func(i, j int) bool {
			a, b := vals[i], vals[j]
			return a < b || (a != a && b == b)
		})
		k := len(vals)
		if t, ok := r.rule.(TrimmedMean); ok {
			n := t.trimCount(k)
			var sum float32
			for _, v := range vals[n : k-n] {
				sum += v
			}
			out[c] = sum / float32(k-2*n)
		} else if k%2 == 1 {
			out[c] = vals[k/2]
		} else {
			out[c] = (vals[k/2-1] + vals[k/2]) / 2
		}
	}
	return out
}

// tieCohort builds k updates whose columns mix ordinary normals with
// the values that make a float sort's tie order observable or its
// comparisons unusual: zeros of both signs, NaNs with distinct payloads
// and signs, ±Inf, subnormals and heavy duplication. Each column draws
// one mix, so the network path and the exact re-sort both see plenty
// of coordinates. The f64 and f32 vectors are drawn independently.
func tieCohort(k, dim int, seed uint64) ([]Update, []float64) {
	r := rng.New(seed)
	updates := make([]Update, k)
	alpha := make([]float64, k)
	for i := range updates {
		updates[i] = Update{ClientID: i, Weights: make([]float64, dim), Weights32: make([]float32, dim)}
		alpha[i] = 1 / float64(k)
	}
	for c := 0; c < dim; c++ {
		mix := r.Intn(5)
		for _, u := range updates {
			u.Weights[c] = math.Float64frombits(tieBits(r, mix, 64))
			u.Weights32[c] = math.Float32frombits(uint32(tieBits(r, mix, 32)))
		}
	}
	return updates, alpha
}

// tieBits draws the bit pattern of one tieCohort value of the given
// width. Mix 0 is all normals; mixes 1–4 replace three values in four
// with signed zeros, NaNs, duplicates, or infinities and subnormals.
func tieBits(r *rng.RNG, mix, width int) uint64 {
	mant := uint(52)
	if width == 32 {
		mant = 23
	}
	sign := uint64(r.Intn(2)) << (width - 1)
	inf := (uint64(1)<<(width-1-int(mant)) - 1) << mant
	frac := r.Uint64() & (1<<mant - 1)
	if mix == 0 || r.Intn(4) == 0 {
		if width == 32 {
			return uint64(math.Float32bits(float32(r.Norm())))
		}
		return math.Float64bits(r.Norm())
	}
	switch mix {
	case 1: // signed zeros
		return sign
	case 2: // NaNs: quiet and signalling, any payload and sign
		return sign | inf | frac | 1
	case 3: // duplicates drawn from {±0, ±1, 2.5}
		one := inf >> 1 &^ (1 << (mant - 1)) // 1.0: exponent bias, no fraction
		switch r.Intn(3) {
		case 0:
			return sign
		case 1:
			return sign | one
		}
		return one | 1<<mant | 1<<(mant-2) // 2.5
	default: // ±Inf, subnormals and the largest finite magnitude
		switch r.Intn(3) {
		case 0:
			return sign | inf
		case 1:
			return sign | frac | 1
		}
		return sign | (inf - 1)
	}
}

// mismatch returns the first index at which want and got differ
// bitwise, or -1.
func mismatch(want, got []float64) int {
	if len(want) != len(got) {
		return 0
	}
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
			return i
		}
	}
	return -1
}

// mismatch32 is mismatch for f32 vectors.
func mismatch32(want, got []float32) int {
	if len(want) != len(got) {
		return 0
	}
	for i := range want {
		if math.Float32bits(want[i]) != math.Float32bits(got[i]) {
			return i
		}
	}
	return -1
}

// orderRules are the Median and TrimmedMean configurations the
// exactness suite compares; β 0.5 hits the half-cohort clamp.
var orderRules = []Merger{Median{}, TrimmedMean{}, TrimmedMean{Beta: 0.1}, TrimmedMean{Beta: 0.3}, TrimmedMean{Beta: 0.5}}

// requireReference fails t unless rule merges the cohort, in both
// widths and on every pool, bit-identically to the sort reference.
func requireReference(t *testing.T, rule Merger, updates []Update, alpha []float64, pools []*engine.Pool) {
	t.Helper()
	ref := refMerger{rule}
	want, want32 := ref.Merge(updates, alpha, nil), ref.Merge32(updates, alpha, nil)
	for _, pool := range pools {
		if c := mismatch(want, rule.Merge(updates, alpha, pool)); c >= 0 {
			t.Fatalf("%s %s k=%d dim=%d workers=%d: f64 coordinate %d differs from the sort reference",
				tensor.KernelBackend(), rule.Name(), len(updates), len(want), pool.Workers(), c)
		}
		if c := mismatch32(want32, rule.Merge32(updates, alpha, pool)); c >= 0 {
			t.Fatalf("%s %s k=%d dim=%d workers=%d: f32 coordinate %d differs from the sort reference",
				tensor.KernelBackend(), rule.Name(), len(updates), len(want32), pool.Workers(), c)
		}
	}
}

// TestOrderStatMatchesSortReference: the blocked kernel must reproduce
// the per-coordinate sort bit for bit, under every kernel tier in the
// host's fallback chain, on tie-heavy cohorts of every size from 1 to
// 40 plus 64 and 100, on dims around the block width, and — across
// pool widths — on dims spanning several aggSegment spans with a
// partial last block.
func TestOrderStatMatchesSortReference(t *testing.T) {
	orig := tensor.KernelBackend()
	defer func() {
		if err := tensor.SetBackend(orig); err != nil {
			t.Fatalf("restoring backend %q: %v", orig, err)
		}
	}()
	nilPool := []*engine.Pool{nil}
	ks := []int{64, 100}
	for k := 1; k <= 40; k++ {
		ks = append(ks, k)
	}
	pools := []*engine.Pool{nil}
	for _, w := range []int{1, 2, 4, 8} {
		p := engine.New(w)
		defer p.Close()
		pools = append(pools, p)
	}
	for _, bk := range tensor.Backends() {
		if err := tensor.SetBackend(bk); err != nil {
			t.Fatalf("SetBackend(%q): %v", bk, err)
		}
		for _, k := range ks {
			for _, dim := range []int{1, orderBlock - 1, orderBlock + 1} {
				updates, alpha := tieCohort(k, dim, uint64(1000*k+dim))
				for _, rule := range orderRules {
					requireReference(t, rule, updates, alpha, nilPool)
				}
			}
		}
		for _, k := range []int{1, 2, 5, 16, 33} {
			updates, alpha := tieCohort(k, 2*aggSegment+orderBlock/2+3, uint64(k))
			for _, rule := range []Merger{Median{}, TrimmedMean{Beta: 0.3}} {
				requireReference(t, rule, updates, alpha, pools)
			}
		}
	}
}

// TestOddEvenMergeSortSorts checks the network construction
// exhaustively by the 0-1 principle: a comparator network sorts every
// input iff it sorts every 0/1 input, and on bits a comparator is
// (AND, OR).
func TestOddEvenMergeSortSorts(t *testing.T) {
	for k := 1; k <= 18; k++ {
		net := oddEvenMergeSort(k)
		for in := uint32(0); in < 1<<k; in++ {
			x := in
			for _, c := range net {
				lo, hi := x>>c.lo&1, x>>c.hi&1
				x = x&^(1<<c.lo|1<<c.hi) | (lo&hi)<<c.lo | (lo|hi)<<c.hi
			}
			// Sorted ascending: every 1 sits above every 0.
			if ones := bits.OnesCount32(x); x != (1<<k-1)&^(1<<(k-ones)-1) {
				t.Fatalf("k=%d: input %b sorts to %b", k, in, x)
			}
		}
	}
}

// cohortBytes flattens cohort weights, update by update, as the
// little-endian f64 bit patterns FuzzOrderStatMatchesSort decodes.
func cohortBytes(updates []Update) []byte {
	var b []byte
	for _, u := range updates {
		for _, w := range u.Weights {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(w))
		}
	}
	return b
}

// FuzzOrderStatMatchesSort feeds raw bit patterns to the blocked
// kernel: data is read as k f64 update vectors, and again as k f32
// ones, and Median and TrimmedMean must match the sort reference bit
// for bit at both widths. The seed corpus, which plain `go test`
// replays, covers mixed-sign zeros, NaN payloads, infinities,
// subnormals and multi-block tie-heavy cohorts.
func FuzzOrderStatMatchesSort(f *testing.F) {
	negZero := math.Copysign(0, -1)
	seed := func(k int, beta float64, vals ...float64) {
		f.Add(uint8(k-1), beta, cohortBytes([]Update{{Weights: vals}}))
	}
	seed(4, 0.25, 0, negZero, negZero, 0, 1, -1, 0, negZero)
	seed(5, 0.2, math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0xfff8000000000002),
		1, math.Float64frombits(0x7ff0000000000003), negZero)
	seed(3, 0.4, math.Inf(1), math.Inf(-1), 5e-324, -5e-324, math.MaxFloat64, 0)
	// One column [+0, −0, +0]: the sort keeps −0 in the middle, a
	// min/max network moves it to the bottom.
	seed(3, 0, 0, negZero, 0)
	for _, k := range []int{7, 16, 40} {
		updates, _ := tieCohort(k, orderBlock+5, uint64(k))
		f.Add(uint8(k-1), 0.3, cohortBytes(updates))
	}
	f.Fuzz(func(t *testing.T, kb uint8, beta float64, data []byte) {
		k := int(kb)%100 + 1
		rules := []Merger{Median{}, TrimmedMean{Beta: beta}}
		alpha := make([]float64, k)
		if dim := len(data) / (8 * k); dim > 0 {
			updates := make([]Update, k)
			for i := range updates {
				updates[i].Weights = make([]float64, dim)
				for c := range updates[i].Weights {
					updates[i].Weights[c] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*(i*dim+c):]))
				}
			}
			for _, rule := range rules {
				want := refMerger{rule}.Merge(updates, alpha, nil)
				if c := mismatch(want, rule.Merge(updates, alpha, nil)); c >= 0 {
					t.Fatalf("%s k=%d: f64 coordinate %d differs from the sort reference", rule.Name(), k, c)
				}
			}
		}
		if dim := len(data) / (4 * k); dim > 0 {
			updates := make([]Update, k)
			for i := range updates {
				updates[i].Weights32 = make([]float32, dim)
				for c := range updates[i].Weights32 {
					updates[i].Weights32[c] = math.Float32frombits(binary.LittleEndian.Uint32(data[4*(i*dim+c):]))
				}
			}
			for _, rule := range rules {
				want := refMerger{rule}.Merge32(updates, alpha, nil)
				if c := mismatch32(want, rule.Merge32(updates, alpha, nil)); c >= 0 {
					t.Fatalf("%s k=%d: f32 coordinate %d differs from the sort reference", rule.Name(), k, c)
				}
			}
		}
	})
}

// TestRobustMergeRunMatchesSortReference: a sign-flip run merged by
// Median or TrimmedMean, at F64 and at F32, must end byte-identical to
// the same run merged by the historical per-coordinate sort. Sign-flip
// turns +0 into −0, so the run feeds the kernel mixed-sign zeros.
func TestRobustMergeRunMatchesSortReference(t *testing.T) {
	const seed = 61
	for _, prec := range []Precision{F64, F32} {
		for _, rule := range []Merger{Median{}, TrimmedMean{Beta: 0.3}} {
			runWith := func(m Merger, workers int) *Result {
				clients, test, cfg := detFederation(t, seed)
				cfg = attackedConfig(cfg)
				cfg.Precision = prec
				cfg.Merger = m
				cfg.Workers = workers
				return stripTimings(Run(cfg, clients, test, FedAvg{}))
			}
			want, got := runWith(refMerger{rule}, 1), runWith(rule, 2)
			if c := mismatch(want.Weights, got.Weights); c >= 0 {
				t.Fatalf("%s %s: final weight %d differs from the sort-reference run", prec, rule.Name(), c)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("%s %s: run differs from the sort-reference run", prec, rule.Name())
			}
		}
	}
}

// TestOrderStatAllocsFlat: a merge allocates the output, the network
// and one lane's scratch, however long the model. The per-coordinate
// sort it replaced allocated twice per coordinate.
func TestOrderStatAllocsFlat(t *testing.T) {
	for _, rule := range []Merger{Median{}, TrimmedMean{Beta: 0.2}} {
		allocs := func(dim int, f32 bool) float64 {
			updates, alpha := mergeCohort(16, dim, 5)
			return testing.AllocsPerRun(5, func() {
				if f32 {
					rule.Merge32(updates, alpha, nil)
				} else {
					rule.Merge(updates, alpha, nil)
				}
			})
		}
		for _, f32 := range []bool{false, true} {
			small, large := allocs(orderBlock, f32), allocs(4*aggSegment+orderBlock+1, f32)
			if large != small || large > 8 {
				t.Fatalf("%s f32=%v: %v allocations at dim %d, %v at dim %d; want the same few",
					rule.Name(), f32, small, orderBlock, large, 4*aggSegment+orderBlock+1)
			}
		}
	}
}

// BenchmarkOrderStat times the robust merge at byz-async-f32's shape:
// Median over k = 16 uploads of its 64→256→128→10 MLP (50 826 weights),
// with a nil pool, at both widths. The "dense" cohort holds no zero.
// The "zeros" cohort zeroes 19% of the coordinates in every upload and
// negates 3 of the 16 uploads, as a sign-flip attack does, so each of
// those coordinates holds +0 and −0: the lane screen marks it and the
// merge re-sorts it on its own.
func BenchmarkOrderStat(b *testing.B) {
	const k, dim = 16, 64*256 + 256 + 256*128 + 128 + 128*10 + 10
	for _, cohort := range []string{"dense", "zeros"} {
		updates, alpha := mergeCohort(k, dim, 23)
		if cohort == "zeros" {
			r := rng.New(29)
			for c := 0; c < dim; c++ {
				if r.Float64() < 0.19 {
					for _, u := range updates {
						u.Weights[c], u.Weights32[c] = 0, 0
					}
				}
			}
			for _, u := range updates[:3] {
				tensor.Scale(-1, u.Weights)
				for c := range u.Weights32 {
					u.Weights32[c] = -u.Weights32[c]
				}
			}
		}
		b.Run(cohort+"/f64", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Median{}.Merge(updates, alpha, nil)
			}
		})
		b.Run(cohort+"/f32", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Median{}.Merge32(updates, alpha, nil)
			}
		})
	}
}
