package fl

import (
	"fmt"
	"unsafe"

	"feddrl/internal/tensor"
)

// Float32 precision mode: the numeric width of the *federated state* —
// the weight vectors clients upload, the server's Eq. 4 merge, and the
// wire encoding — selectable per run via RunConfig.Precision.
//
// Under F32 the invariants are:
//
//   - The global model lives on the float32 lattice: the round engine
//     carries it as []float64 (so evaluation, metrics and Result stay
//     unchanged) but every element is exactly float32-representable
//     (tensor.QuantizeLattice after init, exact widening after each
//     merge). Quantize∘Widen is the identity there, so no drift ever
//     accumulates from the representation choice.
//   - Clients train locally in float64 (the nn solver is untouched) and
//     quantize the uploaded weights once, at the round boundary, with
//     one round-to-nearest-even conversion per weight
//     (nn.ParamVector32) — 4 bytes per weight on the wire.
//   - Aggregation (WeightedMerge.Merge32) runs in pure float32 arithmetic:
//     impact factors rounded to float32, k-ascending Axpy32 folds, one
//     rounding per multiply and one per add. Results are bit-identical
//     across kernel backends and worker counts, exactly like the f64
//     path — the same determinism contract at half width.
//   - Every operation on federated state (the mergers and the
//     finiteness screen) has one body generic over the element type;
//     the f64 and f32 paths are its two instantiations.
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

// precisionOf is the Precision whose federated state has element type
// T.
func precisionOf[T tensor.Elem]() Precision {
	if unsafe.Sizeof(T(0)) == 4 {
		return F32
	}
	return F64
}

// weightsOf points at u's upload of element type T: Weights for
// float64, Weights32 for float32. The operations on federated state
// are written once over T and reach the upload through it.
func weightsOf[T tensor.Elem](u *Update) *[]T {
	if w, ok := any(&u.Weights).(*[]T); ok {
		return w
	}
	return any(&u.Weights32).(*[]T)
}
