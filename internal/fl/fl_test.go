package fl

import (
	"math"
	"testing"
	"testing/quick"

	"feddrl/internal/core"
	"feddrl/internal/dataset"
	"feddrl/internal/nn"
	"feddrl/internal/partition"
	"feddrl/internal/rng"
	"feddrl/internal/tensor"
)

// tinyFactory builds a small MLP for the mnist-sim shape.
func tinyFactory(dim, classes int) nn.Factory {
	return func(seed uint64) *nn.Network {
		return nn.NewMLP(rng.New(seed), dim, []int{16}, classes)
	}
}

func tinyData(t testing.TB, seed uint64) (*dataset.Dataset, *dataset.Dataset) {
	t.Helper()
	return dataset.Synthesize(dataset.MNISTSim().Scaled(0.15), seed)
}

func tinyLocal() LocalConfig { return LocalConfig{Epochs: 2, Batch: 10, LR: 0.05} }

func TestClientRunImprovesLocalLoss(t *testing.T) {
	tr, _ := tinyData(t, 1)
	f := tinyFactory(tr.Dim, tr.NumClasses)
	c := NewClient(0, tr, f, 42)
	global := f(99).ParamVector()
	u := c.Run(global, LocalConfig{Epochs: 3, Batch: 10, LR: 0.05})
	if u.N != tr.N {
		t.Fatalf("update N = %d, want %d", u.N, tr.N)
	}
	if u.LossAfter >= u.LossBefore {
		t.Fatalf("local training did not reduce loss: %v -> %v", u.LossBefore, u.LossAfter)
	}
	if len(u.Weights) != len(global) {
		t.Fatal("weight vector length changed")
	}
}

func TestClientDeterminism(t *testing.T) {
	tr, _ := tinyData(t, 2)
	f := tinyFactory(tr.Dim, tr.NumClasses)
	global := f(7).ParamVector()
	run := func() Update {
		return NewClient(0, tr, f, 42).Run(global, tinyLocal())
	}
	u1, u2 := run(), run()
	if u1.LossBefore != u2.LossBefore || u1.LossAfter != u2.LossAfter {
		t.Fatal("client losses not deterministic")
	}
	for i := range u1.Weights {
		if u1.Weights[i] != u2.Weights[i] {
			t.Fatal("client weights not deterministic")
		}
	}
}

func TestClientEmptyShard(t *testing.T) {
	tr, _ := tinyData(t, 3)
	empty := tr.Subset(nil)
	f := tinyFactory(tr.Dim, tr.NumClasses)
	c := NewClient(1, empty, f, 5)
	global := f(7).ParamVector()
	u := c.Run(global, tinyLocal())
	if u.N != 0 {
		t.Fatalf("empty shard N = %d", u.N)
	}
	for i := range global {
		if u.Weights[i] != global[i] {
			t.Fatal("empty-shard client must return the global weights unchanged")
		}
	}
}

func TestClientSmallShardBatchClamp(t *testing.T) {
	tr, _ := tinyData(t, 4)
	small := tr.Subset([]int{0, 1, 2})
	f := tinyFactory(tr.Dim, tr.NumClasses)
	c := NewClient(2, small, f, 6)
	u := c.Run(f(7).ParamVector(), LocalConfig{Epochs: 2, Batch: 10, LR: 0.05})
	if u.N != 3 {
		t.Fatalf("N = %d", u.N)
	}
	// Training still ran (weights differ from global).
	diff := false
	g := f(7).ParamVector()
	for i := range g {
		if u.Weights[i] != g[i] {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("small shard did not train")
	}
}

func TestFedProxShrinksDivergence(t *testing.T) {
	tr, _ := tinyData(t, 5)
	f := tinyFactory(tr.Dim, tr.NumClasses)
	global := f(7).ParamVector()
	plain := NewClient(0, tr, f, 42).Run(global, LocalConfig{Epochs: 3, Batch: 10, LR: 0.05})
	prox := NewClient(0, tr, f, 42).Run(global, LocalConfig{Epochs: 3, Batch: 10, LR: 0.05, ProxMu: 1.0})
	distPlain, distProx := 0.0, 0.0
	for i := range global {
		dp := plain.Weights[i] - global[i]
		dq := prox.Weights[i] - global[i]
		distPlain += dp * dp
		distProx += dq * dq
	}
	if distProx >= distPlain {
		t.Fatalf("prox term did not shrink divergence: %v vs %v", distProx, distPlain)
	}
}

func TestFedAvgWeights(t *testing.T) {
	ups := []Update{{N: 10}, {N: 30}, {N: 60}}
	w := (FedAvg{}).ImpactFactors(0, ups)
	want := []float64{0.1, 0.3, 0.6}
	for i := range want {
		if math.Abs(w[i]-want[i]) > 1e-12 {
			t.Fatalf("FedAvg weights = %v", w)
		}
	}
	// All-zero counts fall back to uniform.
	u := (FedAvg{}).ImpactFactors(0, []Update{{N: 0}, {N: 0}})
	if u[0] != 0.5 || u[1] != 0.5 {
		t.Fatalf("zero-count fallback = %v", u)
	}
	if (FedProx{}).Name() != "FedProx" || (FedAvg{}).Name() != "FedAvg" {
		t.Fatal("names wrong")
	}
}

func TestAggregateConvexCombination(t *testing.T) {
	ups := []Update{
		{Weights: []float64{1, 0, 2}},
		{Weights: []float64{3, 4, 2}},
	}
	out := WeightedMerge{}.Merge(ups, []float64{0.25, 0.75}, nil)
	want := []float64{2.5, 3, 2}
	for i := range want {
		if math.Abs(out[i]-want[i]) > 1e-12 {
			t.Fatalf("aggregate = %v", out)
		}
	}
}

func TestAggregatePanics(t *testing.T) {
	ups := []Update{{Weights: []float64{1}}, {Weights: []float64{2}}}
	cases := []func(){
		func() { WeightedMerge{}.Merge(nil, nil, nil) },
		func() { WeightedMerge{}.Merge(ups, []float64{1}, nil) },
		func() { WeightedMerge{}.Merge(ups, []float64{0.2, 0.2}, nil) },  // sum != 1
		func() { WeightedMerge{}.Merge(ups, []float64{-0.5, 1.5}, nil) }, // negative
		func() {
			bad := []Update{{Weights: []float64{1}}, {Weights: []float64{1, 2}}}
			WeightedMerge{}.Merge(bad, []float64{0.5, 0.5}, nil)
		},
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d did not panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestAggregateIdentityProperty(t *testing.T) {
	// Aggregating identical weight vectors returns that vector for any
	// convex combination, at either width (the f32 fold rounds each
	// factor and each step to float32, so it holds to f32 precision).
	f := func(seed uint64) bool {
		r := rng.New(seed)
		dim := 1 + r.Intn(16)
		k := 1 + r.Intn(5)
		vec := make([]float64, dim)
		for i := range vec {
			vec[i] = r.Normal(0, 2)
		}
		vec32 := tensor.Quantize(nil, vec)
		ups := make([]Update, k)
		for i := range ups {
			ups[i] = Update{Weights: vec, Weights32: vec32}
		}
		alpha := r.Dirichlet(ones(k))
		out := WeightedMerge{}.Merge(ups, alpha, nil)
		out32 := WeightedMerge{}.Merge32(ups, alpha, nil)
		for i := range out {
			if math.Abs(out[i]-vec[i]) > 1e-9 {
				return false
			}
			if d := float64(out32[i] - vec32[i]); math.Abs(d) > 1e-5*math.Max(1, math.Abs(vec[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func ones(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = 1
	}
	return s
}

func runConfig(tr *dataset.Dataset, rounds, k int) RunConfig {
	return RunConfig{
		Rounds:  rounds,
		K:       k,
		Local:   tinyLocal(),
		Factory: tinyFactory(tr.Dim, tr.NumClasses),
		Seed:    11,
	}
}

func TestRunFedAvgImprovesAccuracy(t *testing.T) {
	tr, te := tinyData(t, 6)
	a := partition.Pareto(tr, 5, 2, 1.2, rng.New(7))
	cfg := runConfig(tr, 8, 5)
	clients := BuildClients(tr, a.ClientIndices, cfg.Factory, cfg.Seed)
	res := Run(cfg, clients, te, FedAvg{})
	if res.Method != "FedAvg" {
		t.Fatalf("method %q", res.Method)
	}
	if len(res.Rounds) != 8 {
		t.Fatalf("rounds %d", len(res.Rounds))
	}
	first, best := res.Accuracy[0], res.Best()
	if best <= first {
		t.Fatalf("no improvement: first %v best %v", first, best)
	}
	if best < 30 {
		t.Fatalf("final accuracy too low: %v", best)
	}
}

func TestRunParallelMatchesSequential(t *testing.T) {
	tr, te := tinyData(t, 8)
	a := partition.Pareto(tr, 4, 2, 1.2, rng.New(9))
	cfg := runConfig(tr, 3, 4)
	seq := Run(cfg, BuildClients(tr, a.ClientIndices, cfg.Factory, cfg.Seed), te, FedAvg{})
	cfgP := cfg
	cfgP.Workers = 4
	par := Run(cfgP, BuildClients(tr, a.ClientIndices, cfg.Factory, cfg.Seed), te, FedAvg{})
	if len(seq.Accuracy) != len(par.Accuracy) {
		t.Fatal("eval counts differ")
	}
	for i := range seq.Accuracy {
		if seq.Accuracy[i] != par.Accuracy[i] {
			t.Fatalf("parallel diverges at eval %d: %v vs %v", i, par.Accuracy[i], seq.Accuracy[i])
		}
	}
}

func TestRunDeterminism(t *testing.T) {
	tr, te := tinyData(t, 10)
	a := partition.ClusteredEqual(tr, 5, 0.6, 2, 3, rng.New(11))
	cfg := runConfig(tr, 3, 5)
	run := func() *Result {
		drl := core.DefaultConfig(5)
		drl.Hidden = 8
		drl.BatchSize = 4
		drl.WarmupExperiences = 2
		drl.UpdatesPerRound = 1
		drl.BufferCap = 64
		return Run(cfg, BuildClients(tr, a.ClientIndices, cfg.Factory, cfg.Seed), te, NewFedDRL(core.NewAgent(drl)))
	}
	r1, r2 := run(), run()
	for i := range r1.Accuracy {
		if r1.Accuracy[i] != r2.Accuracy[i] {
			t.Fatal("FedDRL run not deterministic")
		}
	}
}

func TestRunKClamped(t *testing.T) {
	tr, te := tinyData(t, 12)
	a := partition.Pareto(tr, 3, 2, 1.2, rng.New(13))
	cfg := runConfig(tr, 2, 10) // K=10 > 3 clients
	res := Run(cfg, BuildClients(tr, a.ClientIndices, cfg.Factory, cfg.Seed), te, FedAvg{})
	if len(res.Rounds) != 2 {
		t.Fatal("run did not complete with clamped K")
	}
}

func TestRunSkipsEmptyClients(t *testing.T) {
	tr, te := tinyData(t, 14)
	f := tinyFactory(tr.Dim, tr.NumClasses)
	clients := []*Client{
		NewClient(0, tr.Subset([]int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}), f, 1),
		NewClient(1, tr.Subset(nil), f, 2), // empty
		NewClient(2, tr.Subset([]int{10, 11, 12, 13, 14, 15, 16, 17, 18, 19}), f, 3),
	}
	cfg := runConfig(tr, 2, 3)
	res := Run(cfg, clients, te, FedAvg{})
	if len(res.Rounds) != 2 {
		t.Fatal("run failed with an empty client")
	}
}

func TestFedDRLAggregatorLifecycle(t *testing.T) {
	tr, te := tinyData(t, 16)
	a := partition.ClusteredEqual(tr, 4, 0.5, 2, 2, rng.New(17))
	drlCfg := core.DefaultConfig(4)
	drlCfg.Hidden = 8
	drlCfg.BatchSize = 4
	drlCfg.WarmupExperiences = 2
	drlCfg.UpdatesPerRound = 1
	drlCfg.BufferCap = 64
	agent := core.NewAgent(drlCfg)
	agg := NewFedDRL(agent)
	cfg := runConfig(tr, 6, 4)
	res := Run(cfg, BuildClients(tr, a.ClientIndices, cfg.Factory, cfg.Seed), te, agg)
	if res.Method != "FedDRL" {
		t.Fatalf("method %q", res.Method)
	}
	// After R rounds the agent holds R-1 completed experiences.
	if agent.Buffer.Len() != 5 {
		t.Fatalf("buffer has %d experiences, want 5", agent.Buffer.Len())
	}
	// Decision time is recorded.
	if res.MeanDecisionTime() <= 0 {
		t.Fatal("decision time not recorded")
	}
}

// TestFedDRLWrongKPanics: FedDRL takes 1 to K updates; an empty cohort
// or one above K panics.
func TestFedDRLWrongKPanics(t *testing.T) {
	drlCfg := core.DefaultConfig(3)
	drlCfg.Hidden = 8
	agg := NewFedDRL(core.NewAgent(drlCfg))
	for _, n := range []int{4, 0} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%d updates for K=3 did not panic", n)
				}
			}()
			agg.ImpactFactors(0, make([]Update, n))
		}()
	}
}

// TestFedDRLShortCohort: a cohort below K is merged by FedAvg's weights
// and drops the pending (state, action), so the next full cohort records
// no experience (DESIGN.md §8).
func TestFedDRLShortCohort(t *testing.T) {
	drlCfg := core.DefaultConfig(3)
	drlCfg.Hidden = 8
	agg := NewFedDRL(core.NewAgent(drlCfg))
	full := []Update{{N: 1, LossBefore: 1}, {N: 2, LossBefore: 1}, {N: 3, LossBefore: 1}}
	agg.ImpactFactors(0, full)
	short := full[:2]
	got := agg.ImpactFactors(1, short)
	if want := (FedAvg{}).ImpactFactors(1, short); got[0] != want[0] || got[1] != want[1] || len(got) != 2 {
		t.Fatalf("short cohort got %v, want FedAvg's %v", got, want)
	}
	agg.ImpactFactors(2, full)
	if n := agg.Agent.Buffer.Len(); n != 0 {
		t.Fatalf("a full cohort after a short one recorded %d experiences, want 0", n)
	}
	agg.ImpactFactors(3, full)
	if n := agg.Agent.Buffer.Len(); n != 1 {
		t.Fatalf("two consecutive full cohorts recorded %d experiences, want 1", n)
	}
}

func TestSingleSetRuns(t *testing.T) {
	tr, te := tinyData(t, 18)
	cfg := runConfig(tr, 4, 1)
	res := SingleSet(cfg, tr, te)
	if res.Method != "SingleSet" {
		t.Fatalf("method %q", res.Method)
	}
	if res.Best() < 40 {
		t.Fatalf("SingleSet accuracy too low: %v", res.Best())
	}
	// A diverging run passes the quarantine gate like a federated one:
	// the non-finite updates are dropped and the last finite model kept.
	cfg.Local.LR = 1e300
	res = SingleSet(cfg, tr, te)
	quarantined := 0
	for _, m := range res.Rounds {
		quarantined += m.Quarantined
	}
	if quarantined == 0 || !AllFinite(res.Weights) {
		t.Fatalf("diverging SingleSet: %d rounds quarantined, final weights finite %v", quarantined, AllFinite(res.Weights))
	}
}

func TestSingleSetBeatsOrMatchesFederated(t *testing.T) {
	// The centralized upper bound should not lose badly to FedAvg on a
	// skewed partition.
	tr, te := tinyData(t, 20)
	a := partition.ClusteredEqual(tr, 5, 0.6, 2, 3, rng.New(21))
	cfg := runConfig(tr, 6, 5)
	single := SingleSet(cfg, tr, te)
	fed := Run(cfg, BuildClients(tr, a.ClientIndices, cfg.Factory, cfg.Seed), te, FedAvg{})
	if single.Best()+5 < fed.Best() {
		t.Fatalf("SingleSet (%v) should be near or above FedAvg (%v)", single.Best(), fed.Best())
	}
}

func TestEvalEveryCadence(t *testing.T) {
	tr, te := tinyData(t, 22)
	a := partition.Pareto(tr, 4, 2, 1.2, rng.New(23))
	cfg := runConfig(tr, 7, 4)
	cfg.EvalEvery = 3
	res := Run(cfg, BuildClients(tr, a.ClientIndices, cfg.Factory, cfg.Seed), te, FedAvg{})
	// Rounds 0, 3, 6 evaluated; 6 is also the final round.
	if len(res.Accuracy) != 3 {
		t.Fatalf("evaluations = %d, want 3 (rounds %v)", len(res.Accuracy), res.AccRounds)
	}
}

// TestRunConfigValidatePanics: Check returns an error for every bad
// run or local configuration, NaN and +Inf included, and Run panics
// with it.
func TestRunConfigValidatePanics(t *testing.T) {
	tr, te := tinyData(t, 24)
	good := runConfig(tr, 2, 2)
	if err := good.Check(); err != nil {
		t.Fatalf("good config: %v", err)
	}
	mut := []func(*RunConfig){
		func(c *RunConfig) { c.Rounds = 0 },
		func(c *RunConfig) { c.K = 0 },
		func(c *RunConfig) { c.Factory = nil },
		func(c *RunConfig) { c.Local.Epochs = 0 },
		func(c *RunConfig) { c.Local.LR = 0 },
		func(c *RunConfig) { c.Local.LR = math.NaN() },
		func(c *RunConfig) { c.Local.LR = math.Inf(1) },
		func(c *RunConfig) { c.Local.ProxMu = -1 },
		func(c *RunConfig) { c.Local.ProxMu = math.NaN() },
		func(c *RunConfig) { c.Quarantine.MaxNorm = -1 },
		func(c *RunConfig) { c.Quarantine.MaxNorm = math.NaN() },
	}
	for i, m := range mut {
		cfg := good
		m(&cfg)
		if cfg.Check() == nil {
			t.Fatalf("mutation %d passed Check", i)
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Run accepted Rounds 0")
			}
		}()
		cfg := good
		cfg.Rounds = 0
		Run(cfg, BuildClients(tr, [][]int{{0, 1}, {2, 3}}, cfg.Factory, 1), te, FedAvg{})
	}()
	// AsyncConfig accepts a staleness decay in [0, 1] (0 meaning 1)
	// and nothing else, NaN included.
	for _, d := range []float64{0, 0.5, 1} {
		if err := (AsyncConfig{RunConfig: good, StalenessDecay: d}).Check(); err != nil {
			t.Fatalf("StalenessDecay %v: %v", d, err)
		}
	}
	for _, d := range []float64{-0.1, 1.5, math.NaN()} {
		if (AsyncConfig{RunConfig: good, StalenessDecay: d}).Check() == nil {
			t.Fatalf("StalenessDecay %v passed Check", d)
		}
	}
}
