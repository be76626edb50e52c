package nn

import (
	"runtime"
	"testing"

	"feddrl/internal/rng"
	"feddrl/internal/serialize"
	"feddrl/internal/tensor"
)

// The pinned train-step digests. The other cross-commit pins train MLPs
// only (the fl engines and the experiments layer) or the agent's MLPs
// (internal/core), so a change to convolution, pooling, the edge tiles
// of the GEMM, SGD's FedProx path or Adam's clipping could move bits no
// other pin sees. Each constant hashes every step's output and loss,
// the trained weights and one evaluation forward.
var pinnedTrainStepDigests = map[string]string{
	"mlp-sgd":     "871ea36718e03d2f2370284e323b99371f0ffeed75f7673eeba826bf4c5c9396",
	"mlp-prox":    "52747e0035846b687ce0811ed607ede30b3ad5b0b3890289ce9ac3a7062d51d4",
	"cnn-sgd":     "5097b9cd6a9665d8cda0a2ed25aceb82e9d220de8fab45f6dc6ea6a8127a5b19",
	"cnn-prox":    "5f9ad5dd5465721964c1b86f2b45155e58146755d11a67c707cb2aa1fd13ca6b",
	"vgg-sgd":     "39e618e5c05a8aaf32b1484ea8286f2dedeab75a3b41a05e6f6689942b689d94",
	"vgg-prox":    "24d2cff149bba8f988c56898f731b753ceed194e25aaead6c9ead9576d2f5910",
	"policy-adam": "caa4ad430ff7611fe3e362fd2a1d55b2a17d0d26df1e3e08cb21461357e0020e",
	"value-adam":  "7882a00a44f3584f3a6287b3a7a2626987ec633b6b76dac3bad9b79b17b761c9",
}

// trainStepDigestSteps is how many train steps each case runs; the
// arena is warm from the second on.
const trainStepDigestSteps = 5

// trainDigestCase is one pinned model and optimizer. classes > 0 trains
// with softmax cross-entropy over that many labels; classes == 0
// regresses every output element with MSE.
type trainDigestCase struct {
	build   func(r *rng.RNG) *Network
	in      int
	batch   int
	classes int
	opt     func(ref []float64) interface{ Step(*Network) }
}

func sgdOpt(ref []float64) interface{ Step(*Network) } { return NewSGD(0.05) }

// proxOpt is SGD with the FedProx term pulling toward ref, another
// seed's weights, so the term acts from the first step.
func proxOpt(ref []float64) interface{ Step(*Network) } {
	o := NewSGD(0.05)
	o.ProxMu = 0.1
	o.ProxRef = ref
	return o
}

func adamOpt(ref []float64) interface{ Step(*Network) } {
	o := NewAdam(1e-3)
	o.MaxGradNorm = 0.5
	return o
}

func trainDigestCases() map[string]trainDigestCase {
	mlp := func(r *rng.RNG) *Network { return NewMLP(r, 24, []int{32, 16}, 4) }
	cnn := func(r *rng.RNG) *Network { return NewSimpleCNN(r, 1, 8, 8, 10) }
	vgg := func(r *rng.RNG) *Network { return NewVGGMini(r, 3, 8, 8, 20) }
	// The agent's shapes at K=4 with a narrow hidden width; batch 13
	// leaves an edge tile on every backend.
	const k, hidden = 4, 64
	policy := func(r *rng.RNG) *Network { return NewPolicyMLP(r, 3*k, k, hidden) }
	value := func(r *rng.RNG) *Network { return NewValueMLP(r, 3*k, 2*k, hidden) }
	return map[string]trainDigestCase{
		"mlp-sgd":     {mlp, 24, 6, 4, sgdOpt},
		"mlp-prox":    {mlp, 24, 6, 4, proxOpt},
		"cnn-sgd":     {cnn, 64, 10, 10, sgdOpt},
		"cnn-prox":    {cnn, 64, 10, 10, proxOpt},
		"vgg-sgd":     {vgg, 192, 6, 20, sgdOpt},
		"vgg-prox":    {vgg, 192, 6, 20, proxOpt},
		"policy-adam": {policy, 3 * k, 13, 0, adamOpt},
		"value-adam":  {value, 5 * k, 13, 0, adamOpt},
	}
}

// trainPath is how trainStepDigest runs each train step.
type trainPath string

const (
	// arenaFull runs ForwardScratch/BackwardScratch on one Scratch.
	arenaFull trainPath = "arena"
	// arenaParams runs ForwardScratch/BackwardParams on one Scratch.
	arenaParams trainPath = "arena-params"
	// nilArena runs Network.Forward/Backward.
	nilArena trainPath = "nil-arena"
)

// trainStepDigest trains c's model for trainStepDigestSteps steps on
// seeded batches along path and hashes the result.
func trainStepDigest(c trainDigestCase, path trainPath) string {
	net := c.build(rng.New(3))
	opt := c.opt(c.build(rng.New(4)).ParamVector())
	arena := path != nilArena
	var sc *Scratch
	if arena {
		sc = NewScratch()
	}
	forward := func(x *tensor.Tensor, train bool) *tensor.Tensor {
		if arena {
			return net.ForwardScratch(sc, x, train)
		}
		return net.Forward(x, train)
	}
	ce, mse := NewCrossEntropy(), NewMSE()
	r := rng.New(5)
	x := tensor.New(c.batch, c.in)
	labels := make([]int, c.batch)
	hs := serialize.NewHasher()
	for step := 0; step < trainStepDigestSteps; step++ {
		for i := range x.Data {
			x.Data[i] = r.Normal(0, 1)
		}
		out := forward(x, true)
		hs.Floats(out.Data)
		var grad *tensor.Tensor
		if c.classes > 0 {
			for i := range labels {
				labels[i] = r.Intn(c.classes)
			}
			hs.Float64(ce.Forward(out, labels))
			grad = ce.Backward()
		} else {
			targets := make([]float64, len(out.Data))
			for i := range targets {
				targets[i] = r.Normal(0, 1)
			}
			hs.Float64(mse.Forward(tensor.FromSlice(out.Data, len(out.Data), 1), targets))
			grad = tensor.FromSlice(mse.Backward().Data, out.Rows(), out.Cols())
		}
		net.ZeroGrads()
		switch path {
		case arenaFull:
			net.BackwardScratch(sc, grad)
		case arenaParams:
			net.BackwardParams(sc, grad)
		default:
			net.Backward(grad)
		}
		opt.Step(net)
	}
	hs.Floats(net.ParamVector())
	hs.Floats(forward(x, false).Data)
	return hs.Sum()
}

// TestTrainStepDigestPinned trains every model the reproduction builds
// (the Table 1 MLPs under Adam with clipping, the client models under
// plain SGD and under FedProx) along three paths, through an arena with
// BackwardScratch, through an arena with BackwardParams and with a nil
// arena, and checks each digest against its pinned constant.
func TestTrainStepDigestPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests are pinned on amd64 only, and assume a CPU with AVX and FMA: the Go spec lets %s fuse x*y+z into one rounding, while amd64 fuses only explicit math.FMA, which math.Exp calls on such a CPU", runtime.GOARCH)
	}
	for name, c := range trainDigestCases() {
		want := pinnedTrainStepDigests[name]
		for _, path := range []trainPath{arenaFull, arenaParams, nilArena} {
			if got := trainStepDigest(c, path); got != want {
				t.Errorf("%s: %s train-step digest %s, pinned %s", name, path, got, want)
			}
		}
	}
}
