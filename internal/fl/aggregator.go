package fl

import (
	"fmt"
	"math"

	"feddrl/internal/core"
	"feddrl/internal/tensor"
)

// Aggregator decides the impact factors used to merge client updates
// into the next global model (§3.1). Implementations receive the round's
// updates and return a convex combination weight per update.
type Aggregator interface {
	// Name identifies the method in results ("FedAvg", "FedProx", "FedDRL").
	Name() string
	// ImpactFactors returns one non-negative weight per update, summing
	// to 1.
	ImpactFactors(round int, updates []Update) []float64
}

// FedAvg is the sample-count-proportional aggregation of Eq. 1
// (McMahan et al. 2017): α_k = n_k / Σn.
type FedAvg struct{}

// Name returns "FedAvg".
func (FedAvg) Name() string { return "FedAvg" }

// ImpactFactors returns n_k/Σn per update.
func (FedAvg) ImpactFactors(round int, updates []Update) []float64 {
	if len(updates) == 0 {
		panic("fl: FedAvg with no updates")
	}
	total := 0
	for _, u := range updates {
		total += u.N
	}
	out := make([]float64, len(updates))
	if total == 0 {
		for i := range out {
			out[i] = 1 / float64(len(updates))
		}
		return out
	}
	for i, u := range updates {
		out[i] = float64(u.N) / float64(total)
	}
	return out
}

// FedProx aggregates exactly like FedAvg — the method's difference is the
// client-side proximal term (Li et al. 2020), enabled via
// RunConfig.Local.ProxMu. A separate type keeps result labels honest.
type FedProx struct{ FedAvg }

// Name returns "FedProx".
func (FedProx) Name() string { return "FedProx" }

// FedDRL is the paper's contribution: impact factors produced by the
// deep-reinforcement-learning agent of internal/core (§3.3–3.4,
// Algorithm 2 lines 13–20). One pending (state, action) is kept per
// round; when the next round's losses arrive they complete the previous
// experience with the Eq. 7 reward, and the agent trains online.
type FedDRL struct {
	Agent *core.Agent
	// Explore enables action noise and stochastic impact factors. On for
	// training runs; experiments switch it off for frozen-policy replays.
	Explore bool
	// FedAvgPrior anchors the impact factors on the sample-count prior:
	// α = softmax(z + log n_k/Σn), so a zero action reproduces FedAvg and
	// the policy learns deviations. Essential at compressed round budgets
	// (the paper's 1000-round runs can learn the n_k dependence from
	// scratch via the state); ablated by bench_test.go. Default on.
	FedAvgPrior bool

	pendingState  []float64
	pendingAction []float64
	havePending   bool
}

// NewFedDRL wraps an agent as an aggregator with exploration and the
// FedAvg prior enabled.
func NewFedDRL(agent *core.Agent) *FedDRL {
	if agent == nil {
		panic("fl: NewFedDRL with nil agent")
	}
	return &FedDRL{Agent: agent, Explore: true, FedAvgPrior: true}
}

// Name returns "FedDRL".
func (*FedDRL) Name() string { return "FedDRL" }

// ImpactFactors implements Algorithm 2 lines 13–20: build the state from
// the updates, complete and store the previous round's experience, train
// the agent when the buffer is warm, then act and return softmaxed
// Gaussian impact factors.
//
// During buffer warmup ("while D is insufficient") the aggregator acts
// with the FedAvg behavior policy instead of the untrained network: the
// sample-count weights are encoded as the equivalent Gaussian action
// (z = log α gives softmax(z) = α), so the critic's first experiences
// describe a sensible aggregation instead of random noise. This is the
// standard DDPG warmup treatment and is recorded in DESIGN.md §3; it
// matters at compressed round budgets, where the paper's 200–300 rounds
// of early exploration are unavailable.
//
// A cohort of 1 to K-1 updates (a quarantined upload, an async drop, a
// selector returning fewer than K) fits no 3K state: it is merged by
// FedAvg's weights and the pending (state, action) is dropped, so it
// records no experience (DESIGN.md §8).
func (f *FedDRL) ImpactFactors(round int, updates []Update) []float64 {
	k := f.Agent.Config().K
	if len(updates) == 0 || len(updates) > k {
		panic(fmt.Sprintf("fl: FedDRL takes 1 to K=%d updates, received %d", k, len(updates)))
	}
	if len(updates) < k {
		f.havePending = false
		return (FedAvg{}).ImpactFactors(round, updates)
	}
	lb := make([]float64, k)
	la := make([]float64, k)
	ns := make([]int, k)
	for i, u := range updates {
		lb[i], la[i], ns[i] = u.LossBefore, u.LossAfter, u.N
	}
	state := f.Agent.BuildState(lb, la, ns)

	if f.havePending {
		// The new global model's client losses l_b score last round's
		// action (Algorithm 2 line 17; reward per Eq. 7).
		r := f.Agent.Reward(lb)
		f.Agent.Observe(f.pendingState, f.pendingAction, r, state)
		f.Agent.Train()
	}

	var action, alpha []float64
	switch {
	case !f.Agent.ReadyToTrain() && f.FedAvgPrior:
		// Warmup under the prior parameterization: the zero action IS
		// FedAvg, so the stored experience is exactly consistent.
		alpha = (FedAvg{}).ImpactFactors(round, updates)
		action = make([]float64, 2*k)
	case !f.Agent.ReadyToTrain():
		alpha = (FedAvg{}).ImpactFactors(round, updates)
		action = behaviorAction(alpha, f.Agent.Config().Beta)
	case f.FedAvgPrior:
		action = f.Agent.Act(state, f.Explore)
		alpha = f.Agent.ImpactFactorsWithPrior(action, (FedAvg{}).ImpactFactors(round, updates), f.Explore)
	default:
		action = f.Agent.Act(state, f.Explore)
		alpha = f.Agent.ImpactFactors(action, f.Explore)
	}
	f.pendingState = state
	f.pendingAction = action
	f.havePending = true
	return alpha
}

// behaviorAction encodes a weight vector as the Gaussian action whose
// deterministic impact factors reproduce it: μ = log(α), σ at the Eq. 6
// bound.
func behaviorAction(alpha []float64, beta float64) []float64 {
	k := len(alpha)
	act := make([]float64, 2*k)
	for i, a := range alpha {
		if a < 1e-12 {
			a = 1e-12
		}
		act[i] = math.Log(a)
		act[k+i] = beta * math.Abs(act[i]) * 0.1
	}
	return act
}

// AllFinite reports whether every element of v is a finite number (no
// NaN, no ±Inf).
//
// WeightedMerge panics on non-finite uploads because a single poisoned
// coordinate contaminates the whole merged model, and a caller reaching
// it with one has skipped the screening it owns — library misuse. The
// round engine never trips that panic: its ingress gate
// (QuarantineConfig) treats a non-finite upload as a runtime fault from
// a diverging or malicious client, drops it from the cohort, and counts
// it in RoundMetrics.Quarantined.
//
// The screen runs on the width's SIMD kernel (tensor.AllFinite or
// tensor.AllFinite32).
func AllFinite[T tensor.Elem](v []T) bool {
	if w, ok := any(v).([]float64); ok {
		return tensor.AllFinite(w)
	}
	return tensor.AllFinite32(any(v).([]float32))
}
