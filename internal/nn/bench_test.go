package nn

import (
	"testing"

	"feddrl/internal/rng"
	"feddrl/internal/tensor"
)

// simpleCNNBatch returns SimpleCNN at the shape of a cnn-feddrl-ce
// client (1×8×8 input, 10 classes) and one seeded batch of that many
// rows with labels.
func simpleCNNBatch(rows int) (*Network, *tensor.Tensor, []int) {
	net := NewSimpleCNN(rng.New(1), 1, 8, 8, 10)
	r := rng.New(2)
	x := tensor.New(rows, 64)
	for i := range x.Data {
		x.Data[i] = r.Float64()
	}
	y := make([]int, rows)
	for i := range y {
		y[i] = r.Intn(10)
	}
	return net, x, y
}

// BenchmarkTrainStepSimpleCNN times one warm client train step at the
// paper's batch 10 and lr 0.01: forward, cross-entropy, backward and
// SGD. params runs the backward a client runs (BackwardParams, no input
// gradient at layer 0); full runs BackwardScratch.
func BenchmarkTrainStepSimpleCNN(b *testing.B) {
	for _, bc := range []struct {
		name     string
		backward func(*Network, *Scratch, *tensor.Tensor)
	}{
		{"params", func(n *Network, sc *Scratch, g *tensor.Tensor) { n.BackwardParams(sc, g) }},
		{"full", func(n *Network, sc *Scratch, g *tensor.Tensor) { n.BackwardScratch(sc, g) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			net, x, y := simpleCNNBatch(10)
			sc, ce, opt := NewScratch(), NewCrossEntropy(), NewSGD(0.01)
			step := func() {
				ce.Forward(net.ForwardScratch(sc, x, true), y)
				net.ZeroGrads()
				bc.backward(net, sc, ce.Backward())
				opt.Step(net)
			}
			step()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step()
			}
		})
	}
}

// BenchmarkEvalSimpleCNN times one warm forward pass over 60 rows, one
// client shard's evaluation at the cnn-feddrl-ce shape.
func BenchmarkEvalSimpleCNN(b *testing.B) {
	net, x, _ := simpleCNNBatch(60)
	sc := NewScratch()
	net.ForwardScratch(sc, x, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.ForwardScratch(sc, x, false)
	}
}
