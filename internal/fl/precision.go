package fl

import (
	"fmt"

	"feddrl/internal/engine"
	"feddrl/internal/tensor"
)

// Float32 precision mode: the numeric width of the *federated state* —
// the weight vectors clients upload, the server's Eq. 4 merge, and the
// wire encoding — selectable per run via RunConfig.Precision.
//
// Under F32 the invariants are:
//
//   - The global model lives on the float32 lattice: runLoop/RunAsync
//     carry it as []float64 (so evaluation, metrics and Result stay
//     unchanged) but every element is exactly float32-representable
//     (tensor.QuantizeLattice after init, exact widening after each
//     merge). Quantize∘Widen is the identity there, so no drift ever
//     accumulates from the representation choice.
//   - Clients train locally in float64 (the nn solver is untouched) and
//     quantize the uploaded weights once, at the round boundary, with
//     one round-to-nearest-even conversion per weight
//     (nn.ParamVector32) — 4 bytes per weight on the wire.
//   - Aggregation (AggregateOn32) runs in pure float32 arithmetic:
//     impact factors rounded to float32, k-ascending Axpy32 folds, one
//     rounding per multiply and one per add. Results are bit-identical
//     across kernel backends and worker counts, exactly like the f64
//     path — the same determinism contract at half width.
//
// F64 (the default, including the zero value "") is bit-for-bit the
// pre-precision-mode behavior.

// Precision selects the federated-state width of a run.
type Precision string

const (
	// F64 is full-width federated state — the default and the paper's
	// setting. The zero value "" means F64.
	F64 Precision = "f64"
	// F32 is half-width federated state: f32 uploads, f32 aggregation,
	// 4-byte wire encoding.
	F32 Precision = "f32"
)

// ParsePrecision maps a user-facing flag value to a Precision. The
// empty string and "f64" both parse to F64.
func ParsePrecision(s string) (Precision, error) {
	switch s {
	case "", "f64":
		return F64, nil
	case "f32":
		return F32, nil
	}
	return "", fmt.Errorf("fl: unknown precision %q (valid: f32, f64)", s)
}

// Validate panics on an unknown precision value.
func (p Precision) Validate() {
	switch p {
	case "", F64, F32:
	default:
		panic(fmt.Sprintf("fl: unknown precision %q (valid: f32, f64)", string(p)))
	}
}

// BytesPerWeight returns the wire width of one weight under p.
func (p Precision) BytesPerWeight() int {
	if p == F32 {
		return 4
	}
	return 8
}

// Aggregate32 computes the Eq. 4 merge over float32 uploads into a
// fresh float32 vector — the sequential reference for AggregateOn32.
func Aggregate32(updates []Update, alpha []float64) []float32 {
	return AggregateOn32(updates, alpha, nil)
}

// AggregateOn32 is the f32-mode weighted model merge of Eq. 4:
// w ← Σ_k α_k·w_k over the updates' Weights32 vectors, executed
// segment-parallel on a worker pool (nil means sequential). The impact
// factors are validated at full precision (same convexity contract as
// AggregateOn), then rounded once each to float32; the fold itself is
// pure float32 arithmetic — for every output element a single
// k-ascending chain of one-rounding multiplies and adds, whatever the
// segmentation — so results are bit-identical to the sequential path at
// any pool width and on any kernel backend.
func AggregateOn32(updates []Update, alpha []float64, pool *engine.Pool) []float32 {
	if len(updates) == 0 || len(alpha) != len(updates) {
		panic(fmt.Sprintf("fl: Aggregate32 with %d updates and %d weights", len(updates), len(alpha)))
	}
	sum := 0.0
	for _, a := range alpha {
		if a < 0 {
			panic("fl: negative impact factor")
		}
		sum += a
	}
	if sum < 0.999 || sum > 1.001 {
		panic(fmt.Sprintf("fl: impact factors sum to %v, want 1", sum))
	}
	dim := len(updates[0].Weights32)
	vecs := make([][]float32, len(updates))
	for i, u := range updates {
		if u.Weights32 == nil || len(u.Weights32) != dim {
			panic("fl: inconsistent f32 weight vector lengths")
		}
		if !AllFinite32(u.Weights32) {
			panic(fmt.Sprintf("fl: non-finite weights in update %d (client %d); screen uploads with AllFinite32 or the run loop's quarantine gate", i, u.ClientID))
		}
		vecs[i] = u.Weights32
	}
	alpha32 := make([]float32, len(alpha))
	for i, a := range alpha {
		alpha32[i] = float32(a)
	}
	out := make([]float32, dim)
	segs := (dim + aggSegment - 1) / aggSegment
	if pool == nil || segs <= 1 {
		weightedSum32(out, alpha32, vecs)
		return out
	}
	pool.ForWorkerHinted(segs, engine.SizeFine, 0, func(_, s int) {
		lo := s * aggSegment
		hi := lo + aggSegment
		if hi > dim {
			hi = dim
		}
		sub := make([][]float32, len(vecs))
		for k, v := range vecs {
			sub[k] = v[lo:hi]
		}
		weightedSum32(out[lo:hi], alpha32, sub)
	})
	return out
}

// weightedSum32 folds dst = Σ_k alpha[k]·vecs[k] in ascending k with
// the SIMD f32 axpy kernel — the f32 twin of mathx.WeightedSum.
func weightedSum32(dst []float32, alpha []float32, vecs [][]float32) {
	tensor.Fill32(dst, 0)
	for k, v := range vecs {
		tensor.Axpy32(alpha[k], v, dst)
	}
}
