package fl

import (
	"fmt"
	"sort"
	"unsafe"

	"feddrl/internal/engine"
	"feddrl/internal/tensor"
)

// Sparse update compression (§3.5: "our technique is still applicable to
// other communication techniques such as sparse data compression
// [4, 18]"). Clients upload only the top-k weight *deltas* against the
// broadcast global model; the server reconstructs w_k = w_global + Δ_k
// before aggregation. FedDRL's impact factors are orthogonal to the
// compression, which is exactly the compatibility the paper claims — and
// TestFedDRLWithCompression exercises the combination. Under F32 the
// deltas are taken and carried at half width (4-byte values), composing
// the two wire savings — sparsification and narrow encoding.

// SparseDelta is a compressed client update: the coordinates and values
// of the largest-magnitude weight changes, at the run's element width.
type SparseDelta[T tensor.Elem] struct {
	Dim     int
	Indices []int
	Values  []T
}

// CompressTopK keeps the k largest-magnitude entries of (weights −
// base), computed at width T. k is clamped to the vector length.
func CompressTopK[T tensor.Elem](weights, base []T, k int) SparseDelta[T] {
	if len(weights) != len(base) {
		panic(fmt.Sprintf("fl: CompressTopK length mismatch %d vs %d", len(weights), len(base)))
	}
	if k <= 0 {
		panic("fl: CompressTopK with non-positive k")
	}
	n := len(weights)
	if k > n {
		k = n
	}
	type iv struct {
		i int
		v T
	}
	all := make([]iv, n)
	for i := range weights {
		all[i] = iv{i, weights[i] - base[i]}
	}
	sort.Slice(all, func(a, b int) bool {
		da, db := all[a].v, all[b].v
		if da < 0 {
			da = -da
		}
		if db < 0 {
			db = -db
		}
		return da > db
	})
	d := SparseDelta[T]{Dim: n, Indices: make([]int, k), Values: make([]T, k)}
	top := all[:k]
	sort.Slice(top, func(a, b int) bool { return top[a].i < top[b].i })
	for j, e := range top {
		d.Indices[j] = e.i
		d.Values[j] = e.v
	}
	return d
}

// Decompress reconstructs the full weight vector w = base + Δ.
func (d SparseDelta[T]) Decompress(base []T) []T {
	if len(base) != d.Dim {
		panic(fmt.Sprintf("fl: Decompress base length %d, delta dim %d", len(base), d.Dim))
	}
	out := append([]T(nil), base...)
	for j, i := range d.Indices {
		if i < 0 || i >= d.Dim {
			panic(fmt.Sprintf("fl: Decompress index %d out of %d", i, d.Dim))
		}
		out[i] += d.Values[j]
	}
	return out
}

// WireSize returns the encoded byte size of the sparse delta (4-byte
// indices, values at their width, and a header), for comparing against
// the dense payload of the same width.
func (d SparseDelta[T]) WireSize() int {
	return 8 + 4*len(d.Indices) + int(unsafe.Sizeof(T(0)))*len(d.Values)
}

// CompressionRatio returns dense/sparse payload size at the delta's
// width.
func (d SparseDelta[T]) CompressionRatio() float64 {
	return float64(weightWireSize(precisionOf[T](), d.Dim)) / float64(d.WireSize())
}

// CompressUpdatesOn converts a round's updates at width T into sparse
// deltas against the global model, keeping a fraction of coordinates.
// The per-client top-k selections are independent, so they fan out
// across the pool's lanes (stealable like any engine job when the pool
// is busy), one update per index slot; a nil pool runs inline. The
// result is bit-identical to the sequential path at any pool width.
func CompressUpdatesOn[T tensor.Elem](updates []Update, global []float64, keepFrac float64, pool *engine.Pool) []SparseDelta[T] {
	if !(0 < keepFrac && keepFrac <= 1) {
		panic(fmt.Sprintf("fl: keepFrac %v out of (0,1]", keepFrac))
	}
	k := int(keepFrac * float64(len(global)))
	if k < 1 {
		k = 1
	}
	base := globalAt[T](global)
	out := make([]SparseDelta[T], len(updates))
	pool.For(len(updates), func(i int) {
		out[i] = CompressTopK(*weightsOf[T](&updates[i]), base, k)
	})
	return out
}

// DecompressUpdates reconstructs dense updates at width T from sparse
// deltas, preserving the metadata of the originals.
func DecompressUpdates[T tensor.Elem](updates []Update, deltas []SparseDelta[T], global []float64) []Update {
	if len(updates) != len(deltas) {
		panic("fl: DecompressUpdates length mismatch")
	}
	base := globalAt[T](global)
	out := make([]Update, len(updates))
	for i, u := range updates {
		out[i] = u
		*weightsOf[T](&out[i]) = deltas[i].Decompress(base)
	}
	return out
}

// globalAt returns the global model at width T: itself for float64, and
// for float32 its quantization — exact, since the round engine keeps an
// F32 run's global on the float32 lattice.
func globalAt[T tensor.Elem](global []float64) []T {
	if g, ok := any(global).([]T); ok {
		return g
	}
	return any(tensor.Quantize(nil, global)).([]T)
}
