package fl

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"

	"feddrl/internal/engine"
	"feddrl/internal/tensor"
)

// Merger is the server-side merge seam: it turns a cohort of client
// updates (plus the aggregator's impact factors) into the next global
// model directly. The Aggregator interface can only express convex
// impact factors, which is enough for FedAvg/FedProx/FedDRL but cannot
// express coordinate-wise median, trimmed mean, or Krum; Merger
// generalizes the final reduction while leaving the decision layer
// (ImpactFactors) untouched, so robust merges compose with every
// aggregator.
//
// Contract, shared by all implementations in this package:
//
//   - Merge returns a freshly allocated vector (callers may retain it
//     as the new global model) and must not mutate updates or alpha.
//   - The result is a pure function of (updates, alpha): bit-identical
//     for any pool width, including a nil pool. Parallel
//     implementations fan out over disjoint units (coordinate segments
//     or pairwise distances) and keep every per-unit fold sequential.
//   - Merge32 is the float32-mode twin over Update.Weights32; Merge
//     and Merge32 are never mixed within one run. Each merger writes
//     its rule once, generic over the element width, and the two
//     methods instantiate it; the interface keeps both so that a
//     wrapper (a tracing merger, say) sees which width a run merges
//     at, while mergeP stays the one place a run's precision picks.
type Merger interface {
	Name() string
	// Merge produces the merged float64 vector. pool may be nil for a
	// sequential merge.
	Merge(updates []Update, alpha []float64, pool *engine.Pool) []float64
	// Merge32 is the float32 twin of Merge, reading Update.Weights32.
	Merge32(updates []Update, alpha []float64, pool *engine.Pool) []float32
}

// mergeP dispatches the merge on the run's precision through an
// optional Merger. A nil merger resolves to WeightedMerge, so the zero
// value of RunConfig.Merger is the paper's Eq. 4 merge.
func mergeP(prec Precision, m Merger, updates []Update, alpha []float64, pool *engine.Pool) []float64 {
	if m == nil {
		m = WeightedMerge{}
	}
	if prec == F32 {
		return tensor.Widen(nil, m.Merge32(updates, alpha, pool))
	}
	return m.Merge(updates, alpha, pool)
}

// WeightedMerge is the default impact-factor merger, the weighted model
// merge of Eq. 4: w ← Σ_k α_k·w_k into a fresh vector. It panics unless
// the factors form a (near-)convex combination aligned with the updates,
// and unless every upload is finite — see AllFinite for the
// misuse-vs-fault split. For every output element the fold is one
// k-ascending chain of one-rounding multiplies and adds, whatever the
// pool's segmentation, so the result is bit-identical at any pool width
// (nil means sequential); under a saturated shared pool the segments
// enqueue for stealing like any nested job.
type WeightedMerge struct{}

// Name implements Merger.
func (WeightedMerge) Name() string { return "weighted" }

// Merge implements Merger over the float64 uploads.
func (WeightedMerge) Merge(updates []Update, alpha []float64, pool *engine.Pool) []float64 {
	return weightedMerge[float64](updates, alpha, pool)
}

// Merge32 implements Merger in pure float32 arithmetic over the
// Weights32 uploads.
func (WeightedMerge) Merge32(updates []Update, alpha []float64, pool *engine.Pool) []float32 {
	return weightedMerge[float32](updates, alpha, pool)
}

// weightedMerge is Eq. 4 at width T: the factors are validated at full
// precision, then rounded once each to T (exact for float64).
func weightedMerge[T tensor.Elem](updates []Update, alpha []float64, pool *engine.Pool) []T {
	vecs := mergeVecs[T](updates, alpha)
	checkConvex(alpha)
	alphaT := make([]T, len(alpha))
	for i, v := range vecs {
		if !AllFinite(v) {
			panic(fmt.Sprintf("fl: non-finite weights in update %d (client %d); screen uploads with AllFinite or the round engine's quarantine gate", i, updates[i].ClientID))
		}
		alphaT[i] = T(alpha[i])
	}
	return segmentFold(vecs, alphaT, pool)
}

// checkConvex panics unless the impact factors are non-negative and sum
// to 1 within 1e-3. Both tests are written so that a NaN fails them.
func checkConvex(alpha []float64) {
	sum := 0.0
	for _, a := range alpha {
		if !(a >= 0) {
			panic(fmt.Sprintf("fl: impact factor %v, want non-negative", a))
		}
		sum += a
	}
	if !(sum >= 0.999 && sum <= 1.001) {
		panic(fmt.Sprintf("fl: impact factors sum to %v, want 1", sum))
	}
}

// aggSegment is the column span each pool task merges. Segmentation
// cannot change a result: every output element is the same fold
// whichever segment it lands in.
const aggSegment = 8192

// segmentFold runs weightedSum over the updates' coordinate segments,
// one pool task each.
func segmentFold[T tensor.Elem](vecs [][]T, alpha []T, pool *engine.Pool) []T {
	dim := len(vecs[0])
	out := make([]T, dim)
	segs := (dim + aggSegment - 1) / aggSegment
	pool.ForWorker(segs, func(_, s int) {
		lo := s * aggSegment
		hi := min(lo+aggSegment, dim)
		sub := make([][]T, len(vecs))
		for k, v := range vecs {
			sub[k] = v[lo:hi]
		}
		weightedSum(out[lo:hi], alpha, sub)
	})
	return out
}

// weightedSum folds dst = Σ_k alpha[k]·vecs[k] from +0 in ascending k
// with the width's SIMD axpy kernel (tensor.Axpy or tensor.Axpy32).
func weightedSum[T tensor.Elem](dst, alpha []T, vecs [][]T) {
	clear(dst)
	for k, v := range vecs {
		switch y := any(dst).(type) {
		case []float64:
			tensor.Axpy(float64(alpha[k]), any(v).([]float64), y)
		default:
			tensor.Axpy32(float32(alpha[k]), any(v).([]float32), y.([]float32))
		}
	}
}

// Median merges by coordinate-wise median, ignoring impact factors.
// Robust to up to ⌈k/2⌉-1 arbitrary (Byzantine) updates per
// coordinate. Even cohort sizes take the mean of the two middle
// values.
type Median struct{}

// Name implements Merger.
func (Median) Name() string { return "median" }

// Merge implements Merger.
func (Median) Merge(updates []Update, alpha []float64, pool *engine.Pool) []float64 {
	return orderStat(mergeVecs[float64](updates, alpha), pool, medianSorted[float64])
}

// Merge32 implements Merger.
func (Median) Merge32(updates []Update, alpha []float64, pool *engine.Pool) []float32 {
	return orderStat(mergeVecs[float32](updates, alpha), pool, medianSorted[float32])
}

// medianSorted is Median's readout: the middle row, or the mean of the
// two middle rows.
func medianSorted[T tensor.Elem](dst, sorted []T, stride, k int) {
	hi := sorted[k/2*stride:][:len(dst)]
	if k%2 == 1 {
		copy(dst, hi)
		return
	}
	lo := sorted[(k/2-1)*stride:][:len(dst)]
	for j := range dst {
		dst[j] = (lo[j] + hi[j]) / 2
	}
}

// TrimmedMean merges by coordinate-wise β-trimmed mean: per
// coordinate, the k values are sorted, the ⌊β·k⌋ smallest and largest
// are discarded, and the remainder is averaged (summed in ascending
// order, so the result is independent of update order and pool width).
// Beta is clamped so at least one value survives the trim.
type TrimmedMean struct {
	// Beta is the trim fraction per tail, typically the expected
	// malicious fraction. Values outside [0, 0.5) are clamped.
	Beta float64
}

// Name implements Merger.
func (t TrimmedMean) Name() string { return "trimmed" }

// trimCount resolves the number of values dropped from each tail of a
// sorted k-cohort.
func (t TrimmedMean) trimCount(k int) int {
	b := t.Beta
	switch {
	case b < 0 || math.IsNaN(b):
		b = 0
	case b > 0.5:
		// Clamp before converting: int(b·k) is undefined once b·k
		// leaves the int range.
		b = 0.5
	}
	n := int(b * float64(k))
	if 2*n >= k {
		n = (k - 1) / 2
	}
	return n
}

// Merge implements Merger.
func (t TrimmedMean) Merge(updates []Update, alpha []float64, pool *engine.Pool) []float64 {
	return orderStat(mergeVecs[float64](updates, alpha), pool, trimmedSorted[float64](t.trimCount(len(updates))))
}

// Merge32 implements Merger.
func (t TrimmedMean) Merge32(updates []Update, alpha []float64, pool *engine.Pool) []float32 {
	return orderStat(mergeVecs[float32](updates, alpha), pool, trimmedSorted[float32](t.trimCount(len(updates))))
}

// trimmedSorted is TrimmedMean's readout for n values trimmed per
// tail: the kept rows summed in ascending order from +0, then divided
// by their count.
func trimmedSorted[T tensor.Elem](n int) readout[T] {
	return func(dst, sorted []T, stride, k int) {
		clear(dst)
		for i := n; i < k-n; i++ {
			row := sorted[i*stride:][:len(dst)]
			for j, v := range row {
				dst[j] += v
			}
		}
		kept := T(k - 2*n)
		for j := range dst {
			dst[j] /= kept
		}
	}
}

// Krum merges by selecting the single update whose summed squared
// distance to its n−f−2 nearest neighbours is smallest (Blanchard et
// al., NeurIPS 2017) and returning a copy of it. Selection needs
// n ≥ f+3 for the textbook guarantee; smaller cohorts clamp the
// neighbour count to at least 1. Ties break toward the lowest client
// index, so the choice is deterministic.
type Krum struct {
	// F is the number of Byzantine updates the selection must
	// tolerate.
	F int
}

// Name implements Merger.
func (k Krum) Name() string { return "krum" }

// krumPick returns the index of the selected update given the pairwise
// squared distances d2 (flattened upper triangle, see pairIndex).
func (k Krum) krumPick(n int, d2 []float64) int {
	neighbors := n - k.F - 2
	if neighbors < 1 {
		neighbors = 1
	}
	if neighbors > n-1 {
		neighbors = n - 1
	}
	best, bestScore := 0, math.Inf(1)
	row := make([]float64, 0, n-1)
	for i := 0; i < n; i++ {
		row = row[:0]
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			row = append(row, d2[pairIndex(n, i, j)])
		}
		sort.Float64s(row)
		var score float64
		for _, d := range row[:neighbors] {
			score += d
		}
		if score < bestScore {
			best, bestScore = i, score
		}
	}
	return best
}

// pairIndex maps an unordered pair {i,j}, i≠j, into the flattened
// upper-triangle distance buffer.
func pairIndex(n, i, j int) int {
	if i > j {
		i, j = j, i
	}
	// offset of row i in the packed triangle, plus the column offset.
	return i*n - i*(i+1)/2 + (j - i - 1)
}

// Merge implements Merger.
func (k Krum) Merge(updates []Update, alpha []float64, pool *engine.Pool) []float64 {
	return krumMerge(k, mergeVecs[float64](updates, alpha), pool)
}

// Merge32 implements Merger.
func (k Krum) Merge32(updates []Update, alpha []float64, pool *engine.Pool) []float32 {
	return krumMerge(k, mergeVecs[float32](updates, alpha), pool)
}

// krumMerge returns a copy of the update Krum selects. The pairwise
// squared distances fill the flattened upper triangle; each pair is
// one pool task with a sequential fold, so the buffer is bit-identical
// at any pool width.
func krumMerge[T tensor.Elem](k Krum, vecs [][]T, pool *engine.Pool) []T {
	n := len(vecs)
	d2 := make([]float64, n*(n-1)/2)
	pool.ForWorker(len(d2), func(_, p int) {
		i, j := pairFromIndex(n, p)
		d2[p] = sqDist(vecs[i], vecs[j])
	})
	return slices.Clone(vecs[k.krumPick(n, d2)])
}

// pairFromIndex is the inverse of pairIndex: flat triangle offset back
// to the ordered pair (i, j), i < j.
func pairFromIndex(n, p int) (int, int) {
	i := 0
	for rowLen := n - 1; p >= rowLen; rowLen-- {
		p -= rowLen
		i++
	}
	return i, i + 1 + p
}

// sqDist is the squared L2 distance between two equal-length vectors,
// folded sequentially in f64 at either width: f32 state may use f64
// compute as long as results are deterministic.
func sqDist[T tensor.Elem](a, b []T) float64 {
	var s float64
	for i := range a {
		d := float64(a[i]) - float64(b[i])
		s += d * d
	}
	return s
}

// mergeVecs validates a merge cohort at width T — non-empty, one impact
// factor per update, every update carrying weights of that width, one
// dimension — and returns the weight vectors.
func mergeVecs[T tensor.Elem](updates []Update, alpha []float64) [][]T {
	if len(updates) == 0 {
		panic("fl: merge of zero updates")
	}
	if len(alpha) != len(updates) {
		panic(fmt.Sprintf("fl: %d impact factors for %d updates", len(alpha), len(updates)))
	}
	vecs := make([][]T, len(updates))
	for i := range updates {
		vecs[i] = *weightsOf[T](&updates[i])
		if vecs[i] == nil {
			panic(fmt.Sprintf("fl: update %d carries no %s weights", i, precisionOf[T]()))
		}
		if len(vecs[i]) != len(vecs[0]) {
			panic(fmt.Sprintf("fl: update %d has dim %d, want %d", i, len(vecs[i]), len(vecs[0])))
		}
	}
	return vecs
}

// readout reduces sorted columns to one value each: column j holds
// the k values sorted[j], sorted[stride+j], …, sorted[(k-1)·stride+j]
// in ascending order, and its statistic lands in dst[j].
type readout[T tensor.Elem] func(dst, sorted []T, stride, k int)

// orderBlock is the lane width of orderStat's scratch block: wide
// enough that each comparator pass amortizes its loop, small enough
// that a 16-update f32 block (8 KiB) stays in L1.
const orderBlock = 128

// orderStat is the coordinate-wise order-statistic merge behind Median
// and TrimmedMean: per coordinate it sorts the cohort's k values
// ascending and reduces the sorted column with read.
//
// The sort is column-blocked. A block of orderBlock coordinates is
// copied into a k×orderBlock scratch whose rows are updates and whose
// lanes are coordinates, and one compare-exchange network sorts every
// lane at once, each comparator one SIMD pass of
// tensor.CompareExchange over two rows. Any correct sort yields the
// same sorted column unless two values compare equal with different
// bits — for floats, NaNs or zeros of both signs. There the historical
// per-coordinate pdqsort's tie order picks the surviving NaN payload or
// zero sign. So before the network runs, the lane screen
// (tensor.ScreenZeroNaN) marks every lane holding a zero or a NaN in
// any row, and each marked coordinate that really is tie-sensitive is
// re-sorted from the updates, in update order, with slices.Sort: the
// same pdqsort and NaN-first order. An unmarked lane holds neither, so
// there a swap where hi < lo is exactly min/max and the network's
// column is the sorted one. The output is therefore bit-identical to
// sorting each coordinate on its own. Segments are independent and
// scratch is per lane, so it is the same at any pool width.
func orderStat[T tensor.Elem](vecs [][]T, pool *engine.Pool, read readout[T]) []T {
	k, dim := len(vecs), len(vecs[0])
	out := make([]T, dim)
	net := oddEvenMergeSort(k)
	segs := (dim + aggSegment - 1) / aggSegment
	if pool == nil || segs < 2 {
		newOrderScratch[T](k).merge(vecs, out, 0, net, read)
		return out
	}
	lanes := make([]*orderScratch[T], min(pool.Workers(), segs))
	pool.ForWorker(segs, func(w, s int) {
		if lanes[w] == nil {
			lanes[w] = newOrderScratch[T](k)
		}
		lo := s * aggSegment
		lanes[w].merge(vecs, out[lo:min(lo+aggSegment, dim)], lo, net, read)
	})
	return out
}

// orderScratch is one lane's working memory for orderStat, with the
// width's sorting-network kernels.
type orderScratch[T tensor.Elem] struct {
	block  []T                   // k rows × orderBlock lanes
	col    []T                   // one coordinate's k values, for the exact re-sort
	mask   [orderBlock / 8]uint8 // the block's lane screen, bit j%8 of byte j/8
	cx     func(lo, hi []T)
	screen func(mask []uint8, block []T, stride, k, n int)
}

func newOrderScratch[T tensor.Elem](k int) *orderScratch[T] {
	s := &orderScratch[T]{block: make([]T, k*orderBlock), col: make([]T, k)}
	switch f := any(s).(type) {
	case *orderScratch[float64]:
		f.cx, f.screen = tensor.CompareExchange, tensor.ScreenZeroNaN
	case *orderScratch[float32]:
		f.cx, f.screen = tensor.CompareExchange32, tensor.ScreenZeroNaN32
	}
	return s
}

// merge fills out with the statistic of coordinates [lo, lo+len(out)),
// one block at a time.
func (s *orderScratch[T]) merge(vecs [][]T, out []T, lo int, net []comparator, read readout[T]) {
	k := len(vecs)
	for b := 0; b < len(out); b += orderBlock {
		w := min(orderBlock, len(out)-b)
		c0 := lo + b
		for i, v := range vecs {
			copy(s.block[i*orderBlock:][:w], v[c0:c0+w])
		}
		s.screen(s.mask[:], s.block, orderBlock, k, w)
		for _, c := range net {
			s.cx(s.block[c.lo*orderBlock:][:w], s.block[c.hi*orderBlock:][:w])
		}
		dst := out[b : b+w]
		read(dst, s.block, orderBlock, k)
		for i, m := range s.mask[:(w+7)/8] {
			for ; m != 0; m &= m - 1 {
				j := 8*i + bits.TrailingZeros8(m)
				for r, v := range vecs {
					s.col[r] = v[c0+j]
				}
				if tieSensitive(s.col) {
					slices.Sort(s.col)
					read(dst[j:j+1], s.col, 1, k)
				}
			}
		}
	}
}

// tieSensitive reports whether the sorted order of vals depends on how
// the sort permutes equal-comparing values: a NaN, or zeros of both
// signs.
func tieSensitive[T tensor.Elem](vals []T) bool {
	var pos, neg bool
	for _, v := range vals {
		switch {
		case v != v:
			return true
		case v == 0 && math.Signbit(float64(v)):
			neg = true
		case v == 0:
			pos = true
		}
	}
	return pos && neg
}

// comparator is one compare-exchange of a sorting network: the smaller
// value goes to wire lo, the larger to wire hi (lo < hi).
type comparator struct{ lo, hi int }

// oddEvenMergeSort returns Batcher's odd–even merge sorting network on
// k wires. The loop bounds keep only the comparators of the
// next-power-of-two network whose wires are both below k; that is
// still a sorting network, because the dropped wires would carry +Inf,
// which no comparator moves.
func oddEvenMergeSort(k int) []comparator {
	// Capacity: the comparator count of the full network on 2^t wires,
	// (t²−t+4)·2^(t−2) − 1.
	t := bits.Len(uint(k - 1))
	net := make([]comparator, 0, (t*t-t+4)<<t>>2-1)
	for p := 1; p < k; p *= 2 {
		for d := p; d >= 1; d /= 2 {
			for j := d % p; j+d < k; j += 2 * d {
				for i := 0; i < d && i+j+d < k; i++ {
					if (i+j)/(2*p) == (i+j+d)/(2*p) {
						net = append(net, comparator{i + j, i + j + d})
					}
				}
			}
		}
	}
	return net
}

// ParseMerger resolves a CLI merger name. The empty string and
// "weighted" both select the default impact-factor merge ("" maps to a
// nil Merger so the zero-value configuration stays byte-identical to
// historical runs). frac is the expected malicious fraction and k the
// merge cohort size; together they size Krum's tolerance f =
// max(1, round(frac·k)).
func ParseMerger(name string, frac float64, k int) (Merger, error) {
	switch name {
	case "":
		return nil, nil
	case "weighted":
		return WeightedMerge{}, nil
	case "median":
		return Median{}, nil
	case "trimmed":
		// β tracks the declared malicious fraction with a sampling
		// margin: membership is a per-identity Bernoulli trait, so a
		// k-cohort's malicious count fluctuates around frac·k and a
		// trim sized exactly at frac loses to the variance. Floor 0.2
		// keeps the benign default; cap 0.45 stays below the
		// half-cohort clamp.
		b := frac + 0.1
		if b < 0.2 {
			b = 0.2
		}
		if b > 0.45 {
			b = 0.45
		}
		return TrimmedMean{Beta: b}, nil
	case "krum":
		f := int(math.Round(frac * float64(k)))
		if f < 1 {
			f = 1
		}
		return Krum{F: f}, nil
	}
	return nil, fmt.Errorf("fl: unknown merger %q (valid: weighted, median, trimmed, krum)", name)
}
