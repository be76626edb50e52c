package nn

import "feddrl/internal/tensor"

// Scratch is a per-network arena of reusable activation and gradient
// buffers. Each layer draws its outputs from slots keyed by (layer
// index, slot id); once every shape has been seen, a warm train step —
// forward, backward, optimizer update — performs zero heap allocations
// (asserted by TestTrainStepAllocs and gated in scripts/verify.sh).
//
// Ownership rules:
//
//   - One arena per network instance per goroutine. Arenas are not safe
//     for concurrent use, and two networks sharing an arena would
//     overwrite each other's activations (layer indices collide).
//   - A buffer returned by a layer's ForwardScratch/BackwardScratch is
//     valid until that layer's next call with the same slot: the next
//     forward pass overwrites the previous activations, so callers that
//     need a result across steps must copy it out.
//   - A nil *Scratch is valid everywhere and allocates every buffer
//     fresh (Network.Forward/Backward run that way).
type Scratch struct {
	slots map[scratchKey]*tensor.Tensor
}

type scratchKey struct{ layer, slot int }

// NewScratch returns an empty arena.
func NewScratch() *Scratch {
	return &Scratch{slots: make(map[scratchKey]*tensor.Tensor)}
}

// tensor2D returns the (rows, cols) buffer of the given slot, reusing
// prior capacity when possible (tensor.Reuse2D). Contents are
// unspecified (possibly stale); callers must fully overwrite or Zero
// it.
func (s *Scratch) tensor2D(layer, slot, rows, cols int) *tensor.Tensor {
	if s == nil {
		return tensor.New(rows, cols)
	}
	k := scratchKey{layer: layer, slot: slot}
	t := tensor.Reuse2D(s.slots[k], rows, cols)
	s.slots[k] = t
	return t
}
