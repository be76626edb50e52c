package fl

import (
	"math"
	"reflect"
	"runtime"
	"testing"

	"feddrl/internal/core"
	"feddrl/internal/dataset"
	"feddrl/internal/engine"
	"feddrl/internal/nn"
	"feddrl/internal/partition"
	"feddrl/internal/rng"
	"feddrl/internal/tensor"
)

// The determinism suite: the engine's parallel paths (client fan-out,
// chunked evaluation, segment-parallel aggregation) must be bit-identical
// to the sequential reference for every aggregator, at every worker
// count. "Bit-identical" is literal — float64 == on every weight and
// every recorded metric.

// detFederation builds a small non-IID federation shared by the
// determinism cases.
func detFederation(t testing.TB, seed uint64) (clients []*Client, test *dataset.Dataset, cfg RunConfig) {
	t.Helper()
	tr, te := dataset.Synthesize(dataset.MNISTSim().Scaled(0.12), seed)
	f := tinyFactory(tr.Dim, tr.NumClasses)
	assign := partition.ClusteredEqual(tr, 6, 0.6, 2, 3, rng.New(seed+1))
	cfg = RunConfig{
		Rounds:    4,
		K:         4,
		Local:     LocalConfig{Epochs: 1, Batch: 10, LR: 0.05},
		Factory:   f,
		Seed:      seed + 2,
		EvalEvery: 1,
	}
	return BuildClients(tr, assign.ClientIndices, f, seed+3), te, cfg
}

// detAggregators returns fresh aggregator instances (FedDRL is stateful,
// so every run needs its own agent).
func detAggregators(k int, seed uint64) map[string]func() Aggregator {
	return map[string]func() Aggregator{
		"FedAvg":  func() Aggregator { return FedAvg{} },
		"FedProx": func() Aggregator { return FedProx{} },
		"FedDRL": func() Aggregator {
			drl := core.DefaultConfig(k)
			drl.Hidden = 16
			drl.BatchSize = 8
			drl.WarmupExperiences = 2
			drl.UpdatesPerRound = 1
			drl.BufferCap = 64
			drl.Seed = seed + 9
			return NewFedDRL(core.NewAgent(drl))
		},
	}
}

// stripTimings zeroes the wall-clock fields, the only Result content
// legitimately allowed to differ between runs.
func stripTimings(r *Result) *Result {
	for i := range r.Rounds {
		r.Rounds[i].DecisionTime = 0
		r.Rounds[i].AggTime = 0
	}
	return r
}

// TestRunBitIdenticalAcrossWorkers is the archetype test: Run with
// Workers ∈ {1, 2, 3, GOMAXPROCS} produces byte-for-byte the same
// Result (final weights, accuracy series, client-loss statistics) as
// the sequential path, for all three aggregators.
func TestRunBitIdenticalAcrossWorkers(t *testing.T) {
	const seed = 11
	workerCounts := []int{1, 2, 3, runtime.GOMAXPROCS(0)}
	for name, mkAgg := range detAggregators(4, seed) {
		t.Run(name, func(t *testing.T) {
			runAt := func(workers int) *Result {
				clients, test, cfg := detFederation(t, seed)
				if name == "FedProx" {
					cfg.Local.ProxMu = 0.01
				}
				cfg.Workers = workers
				return stripTimings(Run(cfg, clients, test, mkAgg()))
			}
			ref := runAt(1)
			if len(ref.Weights) == 0 {
				t.Fatal("reference run recorded no final weights")
			}
			for _, w := range workerCounts[1:] {
				got := runAt(w)
				if !reflect.DeepEqual(ref, got) {
					t.Fatalf("Workers=%d Result differs from sequential", w)
				}
				for i := range ref.Weights {
					if math.Float64bits(ref.Weights[i]) != math.Float64bits(got.Weights[i]) {
						t.Fatalf("Workers=%d: weight %d differs bitwise: %x vs %x",
							w, i, math.Float64bits(ref.Weights[i]), math.Float64bits(got.Weights[i]))
					}
				}
			}
		})
	}
}

// TestRunSharedPool runs on a caller-owned engine pool (the experiments
// grid configuration) and checks the result still matches sequential.
func TestRunSharedPool(t *testing.T) {
	const seed = 17
	clients, test, cfg := detFederation(t, seed)
	ref := stripTimings(Run(cfg, clients, test, FedAvg{}))

	pool := engine.New(3)
	defer pool.Close()
	clients2, test2, cfg2 := detFederation(t, seed)
	cfg2.Pool = pool
	got := stripTimings(Run(cfg2, clients2, test2, FedAvg{}))
	if !reflect.DeepEqual(ref, got) {
		t.Fatal("shared-pool Result differs from sequential")
	}
}

// dupSelector violates the Selector contract on purpose: it returns the
// same client twice, which must panic instead of racing two lanes on
// one client.
type dupSelector struct{}

func (dupSelector) Name() string { return "dup" }
func (dupSelector) Select(round, k int, pop Population, r *rng.RNG) []int {
	out := make([]int, k)
	for i := range out {
		out[i] = i % 2
	}
	return out
}

// TestEvaluatorMatchesEvalLossAcc checks the chunk-parallel evaluator
// against the sequential kernel, bitwise, across worker counts and
// dataset sizes that exercise partial final chunks.
func TestEvaluatorMatchesEvalLossAcc(t *testing.T) {
	tr, _ := tinyData(t, 23)
	f := tinyFactory(tr.Dim, tr.NumClasses)
	model := f(5)
	global := model.ParamVector()
	for _, n := range []int{1, 3, evalChunk - 1, evalChunk, evalChunk + 1, tr.N} {
		d := tr.Subset(seqIndices(n))
		wantLoss, wantAcc := EvalLossAcc(model, d)
		for _, workers := range []int{1, 2, 4} {
			pool := engine.New(workers)
			ev := NewEvaluator(f, 5, pool)
			gotLoss, gotAcc := ev.Eval(global, d)
			pool.Close()
			if math.Float64bits(wantLoss) != math.Float64bits(gotLoss) ||
				math.Float64bits(wantAcc) != math.Float64bits(gotAcc) {
				t.Fatalf("n=%d workers=%d: evaluator (%v, %v) != sequential (%v, %v)",
					n, workers, gotLoss, gotAcc, wantLoss, wantAcc)
			}
		}
	}
}

// TestEvalLossAccMatchesNaive cross-checks the chunked kernel against a
// per-sample reference implementation (a different summation order, so
// tolerance-based).
func TestEvalLossAccMatchesNaive(t *testing.T) {
	tr, _ := tinyData(t, 29)
	f := tinyFactory(tr.Dim, tr.NumClasses)
	model := f(6)
	gotLoss, gotAcc := EvalLossAcc(model, tr)
	wantLoss, wantAcc := naiveEvalLossAcc(model, tr)
	if math.Abs(gotLoss-wantLoss) > 1e-9 || math.Abs(gotAcc-wantAcc) > 1e-12 {
		t.Fatalf("chunked (%v, %v) vs naive (%v, %v)", gotLoss, gotAcc, wantLoss, wantAcc)
	}
}

// naiveEvalLossAcc is the obvious one-sample-at-a-time reference.
func naiveEvalLossAcc(m *nn.Network, d *dataset.Dataset) (loss, acc float64) {
	ce := nn.NewCrossEntropy()
	totalLoss, correct := 0.0, 0.0
	for i := 0; i < d.N; i++ {
		x := tensorFromSample(d, i)
		l, a := ce.Eval(m.Forward(x, false), d.Y[i:i+1])
		totalLoss += l
		correct += a
	}
	return totalLoss / float64(d.N), correct / float64(d.N)
}

// TestAggregateOnMatchesSequential checks the segment-parallel weighted
// merge bitwise against both its sequential path and a naive
// double-loop reference, at dimensions spanning multiple segments.
func TestAggregateOnMatchesSequential(t *testing.T) {
	r := rng.New(31)
	for _, dim := range []int{1, 100, aggSegment, aggSegment + 1, 3*aggSegment + 17} {
		const k = 5
		ups := make([]Update, k)
		for i := range ups {
			w := make([]float64, dim)
			for j := range w {
				w[j] = r.Norm()
			}
			ups[i] = Update{N: 10 * (i + 1), Weights: w}
		}
		alpha := (FedAvg{}).ImpactFactors(0, ups)
		want := WeightedMerge{}.Merge(ups, alpha, nil)
		naive := naiveAggregate(ups, alpha)
		for _, workers := range []int{2, 4} {
			pool := engine.New(workers)
			got := WeightedMerge{}.Merge(ups, alpha, pool)
			pool.Close()
			for j := range want {
				if math.Float64bits(want[j]) != math.Float64bits(got[j]) {
					t.Fatalf("dim=%d workers=%d: element %d differs from the sequential merge", dim, workers, j)
				}
				if math.Float64bits(want[j]) != math.Float64bits(naive[j]) {
					t.Fatalf("dim=%d: element %d differs from naive reference", dim, j)
				}
			}
		}
	}
}

// naiveAggregate folds updates in the same k-order as the production
// kernel, one element at a time.
func naiveAggregate(updates []Update, alpha []float64) []float64 {
	out := make([]float64, len(updates[0].Weights))
	for k, u := range updates {
		for j, w := range u.Weights {
			out[j] += alpha[k] * w
		}
	}
	return out
}

// seqIndices returns [0, 1, ..., n).
func seqIndices(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// tensorFromSample wraps sample i as a 1×Dim batch.
func tensorFromSample(d *dataset.Dataset, i int) *tensor.Tensor {
	return tensor.FromSlice(d.Sample(i), 1, d.Dim)
}
