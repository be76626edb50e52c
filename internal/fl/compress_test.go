package fl

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"feddrl/internal/core"
	"feddrl/internal/engine"
	"feddrl/internal/partition"
	"feddrl/internal/rng"
)

func TestCompressTopKExact(t *testing.T) {
	base := []float64{0, 0, 0, 0, 0}
	w := []float64{1, -5, 0.1, 3, -0.2}
	d := CompressTopK(w, base, 2)
	// Largest magnitudes: -5 (idx 1) and 3 (idx 3); indices sorted.
	if len(d.Indices) != 2 || d.Indices[0] != 1 || d.Indices[1] != 3 {
		t.Fatalf("indices %v", d.Indices)
	}
	if d.Values[0] != -5 || d.Values[1] != 3 {
		t.Fatalf("values %v", d.Values)
	}
	rec := d.Decompress(base)
	want := []float64{0, -5, 0, 3, 0}
	for i := range want {
		if rec[i] != want[i] {
			t.Fatalf("decompressed %v", rec)
		}
	}
}

func TestCompressFullKIsLossless(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 1 + r.Intn(32)
		base := make([]float64, n)
		w := make([]float64, n)
		for i := range w {
			base[i] = r.Normal(0, 1)
			w[i] = r.Normal(0, 1)
		}
		d := CompressTopK(w, base, n)
		rec := d.Decompress(base)
		for i := range w {
			if math.Abs(rec[i]-w[i]) > 1e-12 {
				return false
			}
		}
		return compressionError(w, base, d) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// compressionError returns the L2 norm of the delta mass top-k drops:
// the distance between w and its reconstruction from d.
func compressionError(w, base []float64, d SparseDelta[float64]) float64 {
	rec := d.Decompress(base)
	sum := 0.0
	for i := range w {
		diff := w[i] - rec[i]
		sum += diff * diff
	}
	return math.Sqrt(sum)
}

func TestCompressionErrorDecreasesWithK(t *testing.T) {
	r := rng.New(3)
	n := 100
	base := make([]float64, n)
	w := make([]float64, n)
	for i := range w {
		w[i] = r.Normal(0, 1)
	}
	prev := math.Inf(1)
	for _, k := range []int{1, 10, 50, 100} {
		d := CompressTopK(w, base, k)
		e := compressionError(w, base, d)
		if e > prev+1e-12 {
			t.Fatalf("error not monotone at k=%d: %v > %v", k, e, prev)
		}
		prev = e
	}
}

func TestCompressionRatio(t *testing.T) {
	d := CompressTopK(make([]float64, 1000), make([]float64, 1000), 10)
	// Dense: 4+8000; sparse: 8+40+80.
	want := 8004.0 / 128.0
	if math.Abs(d.CompressionRatio()-want) > 1e-9 {
		t.Fatalf("ratio %v, want %v", d.CompressionRatio(), want)
	}
}

func TestCompressPanics(t *testing.T) {
	for i, f := range []func(){
		func() { CompressTopK([]float64{1}, []float64{1, 2}, 1) },
		func() { CompressTopK([]float64{1}, []float64{1}, 0) },
		func() { (SparseDelta[float64]{Dim: 3}).Decompress([]float64{1}) },
		func() { CompressUpdatesOn[float64](nil, []float64{1}, 0, nil) },
		func() { CompressUpdatesOn[float64](nil, []float64{1}, math.NaN(), nil) },
		func() { DecompressUpdates[float64]([]Update{{}}, nil, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d did not panic", i)
				}
			}()
			f()
		}()
	}
}

// TestCompressUpdatesParallelDeterminism is the determinism gate for
// the pooled top-k compression: at any engine width the sparse deltas
// must be bit-identical to the sequential path.
func TestCompressUpdatesParallelDeterminism(t *testing.T) {
	r := rng.New(11)
	dim := 257
	global := make([]float64, dim)
	for i := range global {
		global[i] = r.Normal(0, 1)
	}
	updates := make([]Update, 9)
	for u := range updates {
		w := make([]float64, dim)
		for i := range w {
			w[i] = global[i] + r.Normal(0, 0.3)
		}
		updates[u] = Update{ClientID: u, Weights: w, N: 10 + u}
	}
	want := CompressUpdatesOn[float64](updates, global, 0.1, nil)
	for _, workers := range []int{2, 4, 8} {
		pool := engine.New(workers)
		got := CompressUpdatesOn[float64](updates, global, 0.1, pool)
		pool.Close()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: pooled compression differs from sequential", workers)
		}
	}
	if got := CompressUpdatesOn[float64](updates, global, 0.1, nil); !reflect.DeepEqual(got, want) {
		t.Fatal("nil-pool compression differs from sequential")
	}
}

// TestFedDRLWithCompression verifies §3.5's compatibility claim: FedDRL
// aggregation composed with top-k sparse updates still trains.
func TestFedDRLWithCompression(t *testing.T) {
	tr, te := tinyData(t, 40)
	a := partition.ClusteredEqual(tr, 4, 0.5, 2, 2, rng.New(41))
	factory := tinyFactory(tr.Dim, tr.NumClasses)
	drlCfg := core.DefaultConfig(4)
	drlCfg.Hidden = 8
	drlCfg.BatchSize = 4
	drlCfg.WarmupExperiences = 2
	drlCfg.UpdatesPerRound = 1
	drlCfg.BufferCap = 64
	agg := NewFedDRL(core.NewAgent(drlCfg))
	clients := BuildClients(tr, a.ClientIndices, factory, 42)
	lc := LocalConfig{Epochs: 2, Batch: 10, LR: 0.05}

	global := factory(43).ParamVector()
	serverModel := factory(43)
	var firstAcc, lastAcc float64
	for round := 0; round < 8; round++ {
		updates := make([]Update, len(clients))
		for i, c := range clients {
			updates[i] = c.Run(global, lc)
		}
		// Compress at 30% density, then reconstruct server-side.
		deltas := CompressUpdatesOn[float64](updates, global, 0.3, nil)
		restored := DecompressUpdates(updates, deltas, global)
		alpha := agg.ImpactFactors(round, restored)
		global = WeightedMerge{}.Merge(restored, alpha, nil)
		serverModel.SetParamVector(global)
		_, acc := EvalLossAcc(serverModel, te)
		if round == 0 {
			firstAcc = acc
		}
		lastAcc = acc
	}
	if lastAcc <= firstAcc {
		t.Fatalf("compressed FedDRL did not improve: %v -> %v", firstAcc, lastAcc)
	}
}
