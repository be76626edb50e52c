// Package core implements the paper's primary contribution: the
// DDPG-style deep-reinforcement-learning agent that adaptively assigns
// per-client impact factors for federated model aggregation (FedDRL,
// §3.3–3.4).
//
// The agent maintains a policy network and a value network, each with a
// ρ-soft-updated target copy (Fig. 3a). The state is the 3K vector of
// per-client global-model losses, local-model losses and sample counts
// (§3.3.2); the action is 2K Gaussian parameters (K means, K standard
// deviations, §3.3.3) constrained by σ ≤ β·μ (Eq. 6); impact factors are
// the softmax of per-client Gaussian draws (Eq. 5); and the reward is the
// negated sum of the average client loss and the max–min loss gap
// (Eq. 7 — see DESIGN.md §5 for the sign convention). Training follows
// Algorithm 1 with TD-prioritized experience replay, and the two-stage
// strategy of §3.4.2 is provided by TrainTwoStage.
package core

import (
	"fmt"
	"math"
)

// Config holds the agent hyperparameters. Defaults follow Table 1.
type Config struct {
	// K is the number of participating clients per round; the action has
	// 2K entries and the state 3K.
	K int
	// Hidden is the width of the policy/value hidden layers (Table 1: 256).
	Hidden int
	// PolicyLR and ValueLR are the Adam learning rates (Table 1: 1e-4, 1e-3).
	PolicyLR, ValueLR float64
	// Gamma is the discount factor (Table 1: 0.99).
	Gamma float64
	// Rho is the soft main→target update factor (Table 1: 0.02).
	Rho float64
	// Beta bounds the action standard deviations: σ ≤ Beta·|μ| (Eq. 6).
	Beta float64
	// BufferCap is the experience buffer capacity (Table 1: 100 000).
	BufferCap int
	// BatchSize is the replay batch size per update.
	BatchSize int
	// UpdatesPerRound is F of Algorithm 1: value/policy updates per
	// training call.
	UpdatesPerRound int
	// WarmupExperiences is the minimum buffer fill before training
	// ("if D is sufficient", Algorithm 2 line 19).
	WarmupExperiences int
	// ExploreStd is the scale of the Gaussian exploration noise ε added
	// to the policy output during online action selection (Alg. 2 line 14).
	ExploreStd float64
	// ExploreDecay multiplies the exploration scale after every
	// exploratory action (standard DDPG practice; the paper is silent, so
	// 1 — no decay — stays faithful to the printed algorithm while the
	// default 0.995 stabilizes short runs; see DESIGN.md §3).
	ExploreDecay float64
	// MaxGradNorm clips DRL gradients for stability (0 disables).
	MaxGradNorm float64
	// NormalizeState scales the state's loss entries by 1/(1+mean loss)
	// and sample counts to fractions. Ablated in bench_test.go.
	NormalizeState bool
	// RewardGapWeight scales the fairness (max−min) term of the reward;
	// 1 reproduces Eq. 7, 0 ablates it.
	RewardGapWeight float64
	// Seed drives all agent randomness.
	Seed uint64
}

// DefaultConfig returns the Table 1 configuration for K participating
// clients.
func DefaultConfig(k int) Config {
	return Config{
		K:                 k,
		Hidden:            256,
		PolicyLR:          1e-4,
		ValueLR:           1e-3,
		Gamma:             0.99,
		Rho:               0.02,
		Beta:              0.2,
		BufferCap:         100000,
		BatchSize:         64,
		UpdatesPerRound:   8,
		WarmupExperiences: 16,
		ExploreStd:        0.1,
		ExploreDecay:      0.995,
		MaxGradNorm:       5,
		NormalizeState:    true,
		RewardGapWeight:   1,
		Seed:              1,
	}
}

// StateDim returns the state vector length (3K, §3.3.2).
func (c Config) StateDim() int { return 3 * c.K }

// ActionDim returns the action vector length (2K, §3.3.3).
func (c Config) ActionDim() int { return 2 * c.K }

// Check reports an inconsistent configuration. Each float range test
// is negated, !(lo <= x && x <= hi), so that a NaN fails it; the
// learning rates and the exploration noise must also be finite.
func (c Config) Check() error {
	switch {
	case c.K <= 0:
		return fmt.Errorf("core: K %d must be positive", c.K)
	case c.Hidden <= 0:
		return fmt.Errorf("core: Hidden %d must be positive", c.Hidden)
	case !(c.PolicyLR > 0 && c.PolicyLR <= math.MaxFloat64 && c.ValueLR > 0 && c.ValueLR <= math.MaxFloat64):
		return fmt.Errorf("core: learning rates %v, %v must be positive and finite", c.PolicyLR, c.ValueLR)
	case !(0 <= c.Gamma && c.Gamma < 1):
		return fmt.Errorf("core: Gamma %v out of [0,1)", c.Gamma)
	case !(0 < c.Rho && c.Rho <= 1):
		return fmt.Errorf("core: Rho %v out of (0,1]", c.Rho)
	case !(0 < c.Beta && c.Beta <= 1):
		return fmt.Errorf("core: Beta %v out of (0,1]", c.Beta)
	case c.BufferCap <= 0 || c.BatchSize <= 0 || c.UpdatesPerRound <= 0:
		return fmt.Errorf("core: BufferCap %d, BatchSize %d and UpdatesPerRound %d must be positive", c.BufferCap, c.BatchSize, c.UpdatesPerRound)
	case c.WarmupExperiences < 1:
		return fmt.Errorf("core: WarmupExperiences %d must be at least 1", c.WarmupExperiences)
	case !(c.ExploreStd >= 0 && c.ExploreStd <= math.MaxFloat64):
		return fmt.Errorf("core: ExploreStd %v must be non-negative and finite", c.ExploreStd)
	case !(0 < c.ExploreDecay && c.ExploreDecay <= 1):
		return fmt.Errorf("core: ExploreDecay %v out of (0,1]", c.ExploreDecay)
	case !(c.RewardGapWeight >= 0):
		return fmt.Errorf("core: RewardGapWeight %v must be non-negative", c.RewardGapWeight)
	}
	return nil
}
