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
//     Forward overwrites the previous activations, so callers that need
//     a result across steps must copy it out.
//   - A nil *Scratch is valid everywhere and falls back to fresh
//     allocation, which is exactly the old per-call behavior.
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

// ScratchLayer is implemented by layers with allocation-free paths:
// ForwardScratch/BackwardScratch mirror Forward/Backward but write
// their outputs (and any internal temporaries) into arena slots keyed
// by the caller-assigned layer id. With a nil arena they behave exactly
// like Forward/Backward.
type ScratchLayer interface {
	Layer
	ForwardScratch(sc *Scratch, id int, x *tensor.Tensor, train bool) *tensor.Tensor
	BackwardScratch(sc *Scratch, id int, grad *tensor.Tensor) *tensor.Tensor
}

// ForwardScratch runs all layers in order, drawing activation buffers
// from the arena. Layers without a scratch path (none of the standard
// ones) fall back to their allocating Forward.
func (n *Network) ForwardScratch(sc *Scratch, x *tensor.Tensor, train bool) *tensor.Tensor {
	for i, l := range n.layers {
		if sl, ok := l.(ScratchLayer); ok {
			x = sl.ForwardScratch(sc, i, x, train)
		} else {
			x = l.Forward(x, train)
		}
	}
	return x
}

// BackwardScratch runs all layers in reverse, drawing gradient buffers
// from the arena.
func (n *Network) BackwardScratch(sc *Scratch, grad *tensor.Tensor) *tensor.Tensor {
	for i := len(n.layers) - 1; i >= 0; i-- {
		if sl, ok := n.layers[i].(ScratchLayer); ok {
			grad = sl.BackwardScratch(sc, i, grad)
		} else {
			grad = n.layers[i].Backward(grad)
		}
	}
	return grad
}
