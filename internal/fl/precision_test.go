package fl

import (
	"math"
	"reflect"
	"testing"

	"feddrl/internal/engine"
	"feddrl/internal/serialize"
	"feddrl/internal/tensor"
)

// The f32 precision-mode suite: RunConfig.Precision = F32 must honor
// the same determinism contract as every other mode — bit-identical
// across worker counts, across eager/virtual/async construction and
// across kernel backends — while halving the update wire size.

// TestF32EagerVirtualBitIdentical extends the virtual-client acceptance
// test to F32: Run and RunVirtual under Precision F32 must agree bit
// for bit — every weight, every metric — for all three aggregators at
// Workers ∈ {1, 2, 4, 8}.
func TestF32EagerVirtualBitIdentical(t *testing.T) {
	const seed = 11
	for name, mkAgg := range detAggregators(4, seed) {
		t.Run(name, func(t *testing.T) {
			for _, workers := range []int{1, 2, 4, 8} {
				eagerRun := func() *Result {
					clients, test, cfg := detFederation(t, seed)
					if name == "FedProx" {
						cfg.Local.ProxMu = 0.01
					}
					cfg.Workers = workers
					cfg.Precision = F32
					return stripTimings(Run(cfg, clients, test, mkAgg()))
				}
				virtualRun := func() *Result {
					cp, test, cfg := detVirtualFederation(t, seed)
					if name == "FedProx" {
						cfg.Local.ProxMu = 0.01
					}
					cfg.Workers = workers
					cfg.Precision = F32
					return stripTimings(RunVirtual(cfg, cp, test, mkAgg()))
				}
				want, got := eagerRun(), virtualRun()
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("Workers=%d: f32 virtual Result differs from eager", workers)
				}
				for i := range want.Weights {
					if math.Float64bits(want.Weights[i]) != math.Float64bits(got.Weights[i]) {
						t.Fatalf("Workers=%d: f32 weight %d differs bitwise", workers, i)
					}
				}
			}
		})
	}
}

// TestF32AsyncDegenerateMatchesVirtual: the degenerate async trace must
// reproduce RunVirtual bit for bit under F32, exactly as it does under
// the default precision.
func TestF32AsyncDegenerateMatchesVirtual(t *testing.T) {
	const seed = 17
	for _, workers := range []int{1, 4} {
		syncRun := func() *Result {
			cp, test, cfg := detVirtualFederation(t, seed)
			cfg.Workers = workers
			cfg.Precision = F32
			return stripTimings(RunVirtual(cfg, cp, test, FedAvg{}))
		}
		asyncRun := func() *AsyncResult {
			cp, test, cfg := detVirtualFederation(t, seed)
			cfg.Workers = workers
			cfg.Precision = F32
			return stripAsyncTimings(mustAsync(RunAsync(AsyncConfig{RunConfig: cfg}, cp, test, FedAvg{})))
		}
		want, got := syncRun(), asyncRun()
		if !reflect.DeepEqual(want, got.Result) {
			t.Fatalf("Workers=%d: f32 degenerate async differs from RunVirtual", workers)
		}
	}
}

// TestF32BitIdenticalAcrossBackends forces each kernel tier in the
// host's fallback chain and requires byte-for-byte the same f32-mode
// Result from every one — the half-width twin of the backend-invariance
// guarantee.
func TestF32BitIdenticalAcrossBackends(t *testing.T) {
	const seed = 29
	orig := tensor.KernelBackend()
	defer func() {
		if err := tensor.SetBackend(orig); err != nil {
			t.Fatalf("restoring backend %q: %v", orig, err)
		}
	}()
	runOnce := func() *Result {
		clients, test, cfg := detFederation(t, seed)
		cfg.Workers = 2
		cfg.Precision = F32
		return stripTimings(Run(cfg, clients, test, FedAvg{}))
	}
	var ref *Result
	var refName string
	for _, name := range tensor.Backends() {
		if err := tensor.SetBackend(name); err != nil {
			t.Fatalf("SetBackend(%q): %v", name, err)
		}
		got := runOnce()
		if ref == nil {
			ref, refName = got, name
			continue
		}
		if !reflect.DeepEqual(ref, got) {
			t.Fatalf("f32 Result differs between backends %q and %q", refName, name)
		}
	}
}

// TestF32GlobalStaysOnLattice: the F32 run's reported weights must all
// be exactly float32-representable (the lattice invariant that makes
// Quantize∘Widen the identity), and the mode must actually engage —
// an F32 run differs from the F64 run of the same federation.
func TestF32GlobalStaysOnLattice(t *testing.T) {
	const seed = 31
	runAt := func(prec Precision) *Result {
		clients, test, cfg := detFederation(t, seed)
		cfg.Precision = prec
		return stripTimings(Run(cfg, clients, test, FedAvg{}))
	}
	f32 := runAt(F32)
	for i, w := range f32.Weights {
		if float64(float32(w)) != w && !math.IsNaN(w) {
			t.Fatalf("weight %d = %v is off the float32 lattice", i, w)
		}
	}
	f64 := runAt(F64)
	same := true
	for i := range f64.Weights {
		if math.Float64bits(f64.Weights[i]) != math.Float64bits(f32.Weights[i]) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("f32 run is bitwise equal to f64 run; precision knob had no effect")
	}
}

// TestAggregate32PoolInvariance: the segment-parallel f32 merge must be
// bit-identical to the sequential fold at any pool width, including
// dimensions that straddle segment boundaries.
func TestAggregate32PoolInvariance(t *testing.T) {
	for _, dim := range []int{1, aggSegment - 1, aggSegment, aggSegment + 1, 3*aggSegment + 7} {
		updates := make([]Update, 4)
		alpha := []float64{0.1, 0.2, 0.3, 0.4}
		for k := range updates {
			w := make([]float32, dim)
			for i := range w {
				w[i] = float32(math.Sin(float64(i*(k+3)))) * 0.5
			}
			updates[k].Weights32 = w
		}
		want := WeightedMerge{}.Merge32(updates, alpha, nil)
		for _, workers := range []int{2, 3, 8} {
			pool := engine.New(workers)
			got := WeightedMerge{}.Merge32(updates, alpha, pool)
			pool.Close()
			for i := range want {
				if math.Float32bits(want[i]) != math.Float32bits(got[i]) {
					t.Fatalf("dim=%d workers=%d: element %d differs bitwise", dim, workers, i)
				}
			}
		}
	}
}

// TestAggregate32Validation: the f32 merge enforces the same impact-
// factor convexity contract as the f64 one.
func TestAggregate32Validation(t *testing.T) {
	u := []Update{{Weights32: []float32{1, 2}}, {Weights32: []float32{3, 4}}}
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("alpha length mismatch", func() { WeightedMerge{}.Merge32(u, []float64{1}, nil) })
	mustPanic("negative alpha", func() { WeightedMerge{}.Merge32(u, []float64{-0.5, 1.5}, nil) })
	mustPanic("non-convex alpha", func() { WeightedMerge{}.Merge32(u, []float64{0.9, 0.9}, nil) })
	mustPanic("inconsistent dims", func() {
		WeightedMerge{}.Merge32([]Update{{Weights32: []float32{1}}, {Weights32: []float32{1, 2}}}, []float64{0.5, 0.5}, nil)
	})
	mustPanic("missing f32 weights", func() {
		WeightedMerge{}.Merge32([]Update{{Weights: []float64{1}}}, []float64{1}, nil)
	})
}

// TestCommPerRoundPHalvesWeightBytes: an F32 round's weight payload is
// exactly half the F64 round's; only the fixed-width metadata (sample
// counts, FedDRL losses, staleness tags) stays full-size.
func TestCommPerRoundPHalvesWeightBytes(t *testing.T) {
	const k, wlen = 10, 5000
	f64 := CommPerRoundP(FedAvg{}, k, wlen, F64)
	f32 := CommPerRoundP(FedAvg{}, k, wlen, F32)
	wantDown := k * serialize.VectorWireSize32(wlen)
	if f32.DownlinkBytes != wantDown {
		t.Fatalf("f32 downlink = %d, want %d", f32.DownlinkBytes, wantDown)
	}
	// Per-client payload: header+4n vs header+8n, metadata unchanged.
	savedPerClient := (serialize.VectorWireSize(wlen) - serialize.VectorWireSize32(wlen))
	if f64.UplinkBytes-f32.UplinkBytes != k*savedPerClient {
		t.Fatalf("f32 uplink saves %d bytes, want %d", f64.UplinkBytes-f32.UplinkBytes, k*savedPerClient)
	}
	ratio := float64(f32.DownlinkBytes+f32.UplinkBytes) / float64(f64.DownlinkBytes+f64.UplinkBytes)
	if ratio > 0.55 {
		t.Fatalf("f32 round moves %.3f of f64 bytes, want ≤ 0.55", ratio)
	}
	// The async variant narrows identically; staleness metadata stays.
	a64 := CommAsyncRoundP(FedAvg{}, k, k-2, wlen, F64)
	a32 := CommAsyncRoundP(FedAvg{}, k, k-2, wlen, F32)
	if a64.UplinkBytes-a32.UplinkBytes != (k-2)*savedPerClient {
		t.Fatal("async f32 uplink saving is not exactly the weight-payload delta")
	}
}

// TestPrecisionParseValidate pins the CLI-facing surface: spellings,
// the zero-value default, and RunConfig.Check's error for an unknown
// precision, with which Run panics.
func TestPrecisionParseValidate(t *testing.T) {
	for _, c := range []struct {
		in   string
		want Precision
	}{{"", F64}, {"f64", F64}, {"f32", F32}} {
		got, err := ParsePrecision(c.in)
		if err != nil || got != c.want {
			t.Fatalf("ParsePrecision(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
	}
	if _, err := ParsePrecision("f16"); err == nil {
		t.Fatal("ParsePrecision accepted f16")
	}
	tr, te := tinyData(t, 24)
	cfg := runConfig(tr, 1, 2)
	for _, p := range []Precision{"", F64, F32} {
		cfg.Precision = p
		if err := cfg.Check(); err != nil {
			t.Fatalf("precision %q: %v", p, err)
		}
	}
	cfg.Precision = "f16"
	if cfg.Check() == nil {
		t.Fatal("Check accepted an unknown precision")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Run accepted an unknown precision")
		}
	}()
	Run(cfg, BuildClients(tr, [][]int{{0, 1}, {2, 3}}, cfg.Factory, 1), te, FedAvg{})
}
