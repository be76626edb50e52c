package nn

import (
	"testing"

	"feddrl/internal/rng"
	"feddrl/internal/tensor"
)

// trainStep runs one full optimization step — forward, loss, backward,
// SGD update — through the arena, with BackwardParams when params is
// set and BackwardScratch otherwise.
func trainStep(net *Network, sc *Scratch, ce *CrossEntropy, opt *SGD, x *tensor.Tensor, y []int, params bool) {
	ce.Forward(net.ForwardScratch(sc, x, true), y)
	net.ZeroGrads()
	if params {
		net.BackwardParams(sc, ce.Backward())
	} else {
		net.BackwardScratch(sc, ce.Backward())
	}
	opt.Step(net)
}

// assertZeroAllocTrainStep warms a fresh network and arena and asserts
// that subsequent steps perform zero heap allocations, once with
// BackwardScratch and once with BackwardParams.
func assertZeroAllocTrainStep(t *testing.T, build func() *Network, in int) {
	t.Helper()
	r := rng.New(42)
	const batch = 8
	x := tensor.New(batch, in)
	for i := range x.Data {
		x.Data[i] = r.Normal(0, 1)
	}
	y := make([]int, batch)
	for i := range y {
		y[i] = r.Intn(2)
	}
	for _, params := range []bool{false, true} {
		net, sc, ce, opt := build(), NewScratch(), NewCrossEntropy(), NewSGD(0.05)
		step := func() { trainStep(net, sc, ce, opt, x, y, params) }
		// Warm: let every slot and kernel scratch buffer reach steady state.
		for i := 0; i < 3; i++ {
			step()
		}
		if allocs := testing.AllocsPerRun(10, step); allocs != 0 {
			t.Fatalf("warm train step (BackwardParams %v) allocates %.1f times per run, want 0", params, allocs)
		}
	}
}

// TestTrainStepAllocsDense is the allocation gate for the dense stack
// (run explicitly by scripts/verify.sh): a warm MLP train step through
// an arena must not touch the heap, with either backward.
func TestTrainStepAllocsDense(t *testing.T) {
	assertZeroAllocTrainStep(t, func() *Network { return NewMLP(rng.New(1), 24, []int{32, 16}, 4) }, 24)
}

// TestTrainStepAllocsConv is the allocation gate for the convolution
// stack: a warm SimpleCNN train step (conv, pool, ReLU, dense, batched
// im2col, blocked GEMMs) must not touch the heap, with either backward.
func TestTrainStepAllocsConv(t *testing.T) {
	assertZeroAllocTrainStep(t, func() *Network { return NewSimpleCNN(rng.New(2), 1, 8, 8, 4) }, 64)
}

// TestScratchPathMatchesPlain pins the arena's bit-identity: training
// the same seeded network with and without a Scratch must produce
// byte-identical parameter trajectories.
func TestScratchPathMatchesPlain(t *testing.T) {
	build := func() *Network { return NewSimpleCNN(rng.New(7), 1, 8, 8, 3) }
	plain, scratched := build(), build()
	sc := NewScratch()
	cePlain, ceScratch := NewCrossEntropy(), NewCrossEntropy()
	optPlain, optScratch := NewSGD(0.05), NewSGD(0.05)
	r := rng.New(9)
	const batch, in = 6, 64
	x := tensor.New(batch, in)
	y := make([]int, batch)
	for step := 0; step < 4; step++ {
		for i := range x.Data {
			x.Data[i] = r.Normal(0, 1)
		}
		for i := range y {
			y[i] = r.Intn(3)
		}
		lp := cePlain.Forward(plain.Forward(x, true), y)
		plain.ZeroGrads()
		plain.Backward(cePlain.Backward())
		optPlain.Step(plain)

		ls := ceScratch.Forward(scratched.ForwardScratch(sc, x, true), y)
		scratched.ZeroGrads()
		scratched.BackwardScratch(sc, ceScratch.Backward())
		optScratch.Step(scratched)

		if lp != ls {
			t.Fatalf("step %d: loss diverged: plain %x scratch %x", step, lp, ls)
		}
	}
	pv, sv := plain.ParamVector(), scratched.ParamVector()
	for i := range pv {
		if pv[i] != sv[i] {
			t.Fatalf("param %d diverged: plain %x scratch %x", i, pv[i], sv[i])
		}
	}
}
