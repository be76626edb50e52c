package core

import (
	"math"
	"testing"
	"testing/quick"

	"feddrl/internal/mathx"
	"feddrl/internal/rng"
)

// smallConfig returns a fast configuration for tests.
func smallConfig(k int) Config {
	cfg := DefaultConfig(k)
	cfg.Hidden = 16
	cfg.BatchSize = 8
	cfg.UpdatesPerRound = 2
	cfg.WarmupExperiences = 4
	cfg.BufferCap = 256
	return cfg
}

func TestDefaultConfigMatchesTable1(t *testing.T) {
	cfg := DefaultConfig(10)
	if cfg.Hidden != 256 {
		t.Fatalf("hidden %d, Table 1 says 256", cfg.Hidden)
	}
	if cfg.PolicyLR != 1e-4 || cfg.ValueLR != 1e-3 {
		t.Fatalf("lrs %v/%v, Table 1 says 1e-4/1e-3", cfg.PolicyLR, cfg.ValueLR)
	}
	if cfg.BufferCap != 100000 {
		t.Fatalf("buffer %d, Table 1 says 100000", cfg.BufferCap)
	}
	if cfg.Gamma != 0.99 || cfg.Rho != 0.02 {
		t.Fatalf("gamma/rho %v/%v, Table 1 says 0.99/0.02", cfg.Gamma, cfg.Rho)
	}
	if err := cfg.Check(); err != nil {
		t.Fatal(err)
	}
	if cfg.StateDim() != 30 || cfg.ActionDim() != 20 {
		t.Fatalf("dims %d/%d, want 30/20", cfg.StateDim(), cfg.ActionDim())
	}
}

// TestConfigValidatePanics: Check returns an error for every bad agent
// configuration, NaN and +Inf included, and NewAgent panics with it.
func TestConfigValidatePanics(t *testing.T) {
	mut := []func(*Config){
		func(c *Config) { c.K = 0 },
		func(c *Config) { c.Hidden = 0 },
		func(c *Config) { c.PolicyLR = 0 },
		func(c *Config) { c.Gamma = 1 },
		func(c *Config) { c.Rho = 0 },
		func(c *Config) { c.Beta = 0 },
		func(c *Config) { c.BatchSize = 0 },
		func(c *Config) { c.WarmupExperiences = 0 },
		func(c *Config) { c.ExploreStd = -1 },
		func(c *Config) { c.RewardGapWeight = -1 },
		// NaN fails every float range test.
		func(c *Config) { c.PolicyLR = math.NaN() },
		func(c *Config) { c.ValueLR = math.NaN() },
		func(c *Config) { c.Gamma = math.NaN() },
		func(c *Config) { c.Rho = math.NaN() },
		func(c *Config) { c.Beta = math.NaN() },
		func(c *Config) { c.ExploreStd = math.NaN() },
		func(c *Config) { c.ExploreDecay = math.NaN() },
		func(c *Config) { c.RewardGapWeight = math.NaN() },
		// +Inf fails the learning-rate and exploration checks.
		func(c *Config) { c.PolicyLR = math.Inf(1) },
		func(c *Config) { c.ValueLR = math.Inf(1) },
		func(c *Config) { c.ExploreStd = math.Inf(1) },
	}
	for i, m := range mut {
		cfg := DefaultConfig(4)
		m(&cfg)
		if cfg.Check() == nil {
			t.Fatalf("mutation %d passed Check", i)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NewAgent accepted K 0")
		}
	}()
	NewAgent(DefaultConfig(0))
}

func TestBuildState(t *testing.T) {
	cfg := smallConfig(3)
	cfg.NormalizeState = false
	a := NewAgent(cfg)
	s := a.BuildState([]float64{1, 2, 3}, []float64{4, 5, 6}, []int{10, 20, 30})
	want := []float64{1, 2, 3, 4, 5, 6, 10, 20, 30}
	for i := range want {
		if s[i] != want[i] {
			t.Fatalf("state = %v", s)
		}
	}
}

func TestBuildStateNormalized(t *testing.T) {
	cfg := smallConfig(2)
	cfg.NormalizeState = true
	a := NewAgent(cfg)
	s := a.BuildState([]float64{1, 3}, []float64{2, 2}, []int{25, 75})
	// s layout: [lb0 lb1 la0 la1 n0 n1]. Counts become fractions.
	if math.Abs(s[4]-0.25) > 1e-12 || math.Abs(s[5]-0.75) > 1e-12 {
		t.Fatalf("normalized counts = %v", s[4:])
	}
	// Losses scaled by 1/(1+mean(lb)) = 1/3.
	if math.Abs(s[0]-1.0/3) > 1e-12 || math.Abs(s[1]-1) > 1e-12 {
		t.Fatalf("normalized global-model losses = %v", s[:2])
	}
	if math.Abs(s[2]-2.0/3) > 1e-12 || math.Abs(s[3]-2.0/3) > 1e-12 {
		t.Fatalf("normalized local losses = %v", s[2:4])
	}
}

func TestBuildStatePanicsOnWrongK(t *testing.T) {
	a := NewAgent(smallConfig(3))
	defer func() {
		if recover() == nil {
			t.Fatal("wrong-K state did not panic")
		}
	}()
	a.BuildState([]float64{1}, []float64{1}, []int{1})
}

func TestActShapeAndConstraint(t *testing.T) {
	cfg := smallConfig(5)
	a := NewAgent(cfg)
	state := make([]float64, cfg.StateDim())
	for i := range state {
		state[i] = float64(i) * 0.1
	}
	act := a.Act(state, false)
	if len(act) != 10 {
		t.Fatalf("action length %d", len(act))
	}
	for j := 0; j < 5; j++ {
		sigma, mu := act[5+j], act[j]
		if sigma < 0 {
			t.Fatalf("negative sigma %v", sigma)
		}
		if sigma > cfg.Beta*math.Abs(mu)+1e-12 {
			t.Fatalf("Eq. 6 violated: sigma %v > beta*|mu| %v", sigma, cfg.Beta*math.Abs(mu))
		}
	}
}

func TestActConstraintProperty(t *testing.T) {
	// Property: for arbitrary states and exploration, σ ≤ β·|μ| always.
	cfg := smallConfig(4)
	a := NewAgent(cfg)
	f := func(raw []float64, explore bool) bool {
		state := make([]float64, cfg.StateDim())
		for i := range state {
			if i < len(raw) {
				state[i] = math.Mod(raw[i], 10)
				if math.IsNaN(state[i]) {
					state[i] = 0
				}
			}
		}
		act := a.Act(state, explore)
		for j := 0; j < cfg.K; j++ {
			if act[cfg.K+j] > cfg.Beta*math.Abs(act[j])+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestImpactFactorsConvexCombination(t *testing.T) {
	cfg := smallConfig(6)
	a := NewAgent(cfg)
	f := func(raw []float64, explore bool) bool {
		act := make([]float64, cfg.ActionDim())
		for i := range act {
			if i < len(raw) {
				act[i] = math.Mod(raw[i], 20)
				if math.IsNaN(act[i]) {
					act[i] = 0
				}
			}
		}
		// Sigmas non-negative.
		for j := cfg.K; j < 2*cfg.K; j++ {
			act[j] = math.Abs(act[j])
		}
		alpha := a.ImpactFactors(act, explore)
		if len(alpha) != cfg.K {
			return false
		}
		sum := 0.0
		for _, v := range alpha {
			if v < 0 || v > 1 || math.IsNaN(v) {
				return false
			}
			sum += v
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestImpactFactorsDeterministicWithoutExplore(t *testing.T) {
	a := NewAgent(smallConfig(3))
	act := []float64{1, 2, 3, 0.1, 0.1, 0.1}
	p1 := a.ImpactFactors(act, false)
	p2 := a.ImpactFactors(act, false)
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatal("evaluation-mode impact factors not deterministic")
		}
	}
	// Larger mean → larger factor.
	if !(p1[2] > p1[1] && p1[1] > p1[0]) {
		t.Fatalf("monotonicity violated: %v", p1)
	}
}

func TestRewardEq7(t *testing.T) {
	a := NewAgent(smallConfig(3))
	// losses [1,2,3]: mean 2, gap 2 → r = -4.
	if r := a.Reward([]float64{1, 2, 3}); math.Abs(r+4) > 1e-12 {
		t.Fatalf("reward = %v, want -4", r)
	}
	// Uniform losses: gap 0 → r = -mean.
	if r := a.Reward([]float64{2, 2, 2}); math.Abs(r+2) > 1e-12 {
		t.Fatalf("reward = %v, want -2", r)
	}
	// Lower losses ⇒ higher reward (the agent prefers better global models).
	if a.Reward([]float64{0.5, 0.5, 0.5}) <= a.Reward([]float64{3, 3, 3}) {
		t.Fatal("reward not monotone in loss")
	}
	// Fairness: same mean, smaller gap ⇒ higher reward.
	if a.Reward([]float64{2, 2, 2}) <= a.Reward([]float64{1, 2, 3}) {
		t.Fatal("reward does not prefer balanced losses")
	}
}

func TestRewardGapWeightAblation(t *testing.T) {
	cfg := smallConfig(3)
	cfg.RewardGapWeight = 0
	a := NewAgent(cfg)
	// With gap weight 0, only the mean matters.
	if a.Reward([]float64{1, 2, 3}) != a.Reward([]float64{2, 2, 2}) {
		t.Fatal("gap ablation did not remove fairness term")
	}
}

func TestObserveAndWarmup(t *testing.T) {
	cfg := smallConfig(2)
	a := NewAgent(cfg)
	s := make([]float64, cfg.StateDim())
	act := make([]float64, cfg.ActionDim())
	if a.ReadyToTrain() {
		t.Fatal("fresh agent should not be ready")
	}
	for i := 0; i < cfg.WarmupExperiences; i++ {
		if !a.Observe(s, act, -1, s) {
			t.Fatal("valid observation rejected")
		}
	}
	if !a.ReadyToTrain() {
		t.Fatal("agent should be ready after warmup")
	}
}

func TestObserveRejectsNaN(t *testing.T) {
	cfg := smallConfig(2)
	a := NewAgent(cfg)
	s := make([]float64, cfg.StateDim())
	act := make([]float64, cfg.ActionDim())
	if a.Observe(s, act, math.NaN(), s) {
		t.Fatal("NaN reward accepted")
	}
	bad := append([]float64(nil), s...)
	bad[0] = math.Inf(1)
	if a.Observe(bad, act, 0, s) {
		t.Fatal("Inf state accepted")
	}
	if a.Buffer.Len() != 0 {
		t.Fatal("buffer should be empty after rejections")
	}
}

func TestTrainIsNoopBeforeWarmup(t *testing.T) {
	cfg := smallConfig(2)
	a := NewAgent(cfg)
	before := a.policy.ParamVector()
	a.Train()
	after := a.policy.ParamVector()
	for i := range before {
		if before[i] != after[i] {
			t.Fatal("Train before warmup modified the policy")
		}
	}
}

func TestTrainUpdatesNetworks(t *testing.T) {
	cfg := smallConfig(2)
	a := NewAgent(cfg)
	r := rng.New(7)
	s := make([]float64, cfg.StateDim())
	for i := 0; i < 20; i++ {
		for j := range s {
			s[j] = r.Float64()
		}
		act := a.Act(s, true)
		a.Observe(s, act, -r.Float64(), s)
	}
	before := a.policy.ParamVector()
	a.Train()
	after := a.policy.ParamVector()
	changed := false
	for i := range before {
		if before[i] != after[i] {
			changed = true
			break
		}
	}
	if !changed {
		t.Fatal("Train did not update the policy")
	}
	if !mathx.AllFinite(after) {
		t.Fatal("training produced non-finite parameters")
	}
}

func TestDeterministicAgent(t *testing.T) {
	run := func() []float64 {
		cfg := smallConfig(3)
		a := NewAgent(cfg)
		s := make([]float64, cfg.StateDim())
		for i := 0; i < 10; i++ {
			for j := range s {
				s[j] = float64(i+j) * 0.01
			}
			act := a.Act(s, true)
			a.Observe(s, act, -1, s)
			a.Train()
		}
		return a.policy.ParamVector()
	}
	p1, p2 := run(), run()
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatal("agent is not deterministic under a fixed seed")
		}
	}
}

// banditEnv is a 1-step environment whose reward depends on how much
// probability mass the softmaxed action means place on a designated
// "good" arm. The optimal policy pushes the good arm's mean up.
type banditEnv struct {
	k    int
	good int
	a    *Agent
}

func (e *banditEnv) Reset() []float64 { return make([]float64, 3*e.k) }
func (e *banditEnv) Step(action []float64) ([]float64, float64, bool) {
	alpha := e.a.ImpactFactors(action, false)
	return make([]float64, 3*e.k), alpha[e.good] - 1, true
}

func TestAgentLearnsBandit(t *testing.T) {
	cfg := smallConfig(3)
	cfg.UpdatesPerRound = 4
	cfg.ExploreStd = 0.3
	a := NewAgent(cfg)
	env := &banditEnv{k: 3, good: 1, a: a}
	s := env.Reset()
	for i := 0; i < 300; i++ {
		act := a.Act(s, true)
		s2, r, _ := env.Step(act)
		a.ObserveDone(s, act, r, s2) // episodic: no bootstrap
		a.Train()
		s = env.Reset()
	}
	final := a.ImpactFactors(a.Act(env.Reset(), false), false)
	if mathx.ArgMax(final) != 1 {
		t.Fatalf("agent failed to favor the good arm: %v", final)
	}
	if final[1] < 0.4 {
		t.Fatalf("good-arm weight too small: %v", final)
	}
}
