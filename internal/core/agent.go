package core

import (
	"fmt"
	"math"
	"slices"

	"feddrl/internal/mathx"
	"feddrl/internal/nn"
	"feddrl/internal/replay"
	"feddrl/internal/rng"
	"feddrl/internal/tensor"
)

// tdChunk is the number of experiences per value-network pass of the TD
// reprioritization: a pass stacks a chunk's [S‖A] and [S2‖A] rows, so
// its activations stay bounded at any buffer size. GEMM rows are
// independent and every kernel path sums in ascending k, so the chunk
// size cannot change any priority.
const tdChunk = 128

// Agent is the DDPG-style impact-factor agent of §3.4.1 (Fig. 3a): main
// and target policy networks, main and target value networks, and a
// TD-prioritized experience buffer. It is not safe for concurrent use;
// the two-stage trainer runs one Agent per worker.
type Agent struct {
	cfg Config

	policy, policyT *nn.Network
	value, valueT   *nn.Network
	popt, vopt      *nn.Adam

	// Buffer is the agent's experience store; exposed for the two-stage
	// merge (Fig. 3b).
	Buffer *replay.Buffer

	rng *rng.RNG

	// exploreScale decays multiplicatively with every exploratory action.
	exploreScale float64

	// One activation arena per network (nn.Scratch's ownership rule) and
	// reusable batch buffers, so warm Act, Observe and Train calls
	// allocate nothing beyond the action and experience they hand out.
	// Contents are valid only within one call.
	psc, ptsc, vsc, vtsc *nn.Scratch
	mse                  *nn.MSE
	st, sa               *tensor.Tensor // policy input rows; value input [S‖A] rows
	act, dAct, dRaw, up  *tensor.Tensor
	clamped              []bool
	batch                []replay.Experience
	prio, targets        []float64
}

// NewAgent builds an agent from the configuration.
func NewAgent(cfg Config) *Agent {
	if err := cfg.Check(); err != nil {
		panic(err)
	}
	r := rng.New(cfg.Seed)
	a := &Agent{
		cfg:     cfg,
		policy:  nn.NewPolicyMLP(r.Split(), cfg.StateDim(), cfg.K, cfg.Hidden),
		policyT: nn.NewPolicyMLP(r.Split(), cfg.StateDim(), cfg.K, cfg.Hidden),
		value:   nn.NewValueMLP(r.Split(), cfg.StateDim(), cfg.ActionDim(), cfg.Hidden),
		valueT:  nn.NewValueMLP(r.Split(), cfg.StateDim(), cfg.ActionDim(), cfg.Hidden),
		Buffer:  replay.New(cfg.BufferCap, r.Split()),
		rng:     r,

		exploreScale: 1,

		psc:  nn.NewScratch(),
		ptsc: nn.NewScratch(),
		vsc:  nn.NewScratch(),
		vtsc: nn.NewScratch(),
		mse:  nn.NewMSE(),
	}
	a.popt = nn.NewAdam(cfg.PolicyLR)
	a.vopt = nn.NewAdam(cfg.ValueLR)
	a.popt.MaxGradNorm = cfg.MaxGradNorm
	a.vopt.MaxGradNorm = cfg.MaxGradNorm
	// Targets start as exact copies of the mains (Algorithm 1 input).
	a.policyT.CopyFrom(a.policy)
	a.valueT.CopyFrom(a.value)
	return a
}

// Config returns the agent's configuration.
func (a *Agent) Config() Config { return a.cfg }

// BuildState assembles the 3K state of §3.3.2 from the per-client
// global-model losses (l_b), local-model losses (l_a) and sample counts.
// With NormalizeState, losses are scaled by 1/(1+mean(l_b)) and counts
// become fractions of the round total.
func (a *Agent) BuildState(lossesBefore, lossesAfter []float64, sampleCounts []int) []float64 {
	return BuildState(a.cfg, lossesBefore, lossesAfter, sampleCounts)
}

// BuildState is the package-level form of Agent.BuildState, usable by
// environments that simulate the server without holding an agent.
func BuildState(cfg Config, lossesBefore, lossesAfter []float64, sampleCounts []int) []float64 {
	k := cfg.K
	if len(lossesBefore) != k || len(lossesAfter) != k || len(sampleCounts) != k {
		panic(fmt.Sprintf("core: BuildState expects %d clients, got %d/%d/%d",
			k, len(lossesBefore), len(lossesAfter), len(sampleCounts)))
	}
	s := make([]float64, 3*k)
	copy(s[:k], lossesBefore)
	copy(s[k:2*k], lossesAfter)
	total := 0
	for _, n := range sampleCounts {
		total += n
	}
	for i, n := range sampleCounts {
		if cfg.NormalizeState && total > 0 {
			s[2*k+i] = float64(n) / float64(total)
		} else {
			s[2*k+i] = float64(n)
		}
	}
	if cfg.NormalizeState {
		scale := 1 / (1 + mathx.Mean(lossesBefore))
		for i := 0; i < 2*k; i++ {
			s[i] *= scale
		}
	}
	return s
}

// packSA writes the value-network input s‖act into row.
func packSA(row, s, act []float64) {
	n := copy(row, s)
	copy(row[n:], act)
}

// actionTransform converts raw policy outputs (batch, 2K) into
// constrained actions in the agent's reusable action tensor, recording
// the chain needed for backprop: μ_k = raw_k;
// σ_k = min(softplus(raw_{K+k}), β·|μ_k|).
func (a *Agent) actionTransform(raw *tensor.Tensor) (act *tensor.Tensor, clamped []bool) {
	k := a.cfg.K
	batch := raw.Rows()
	a.act = tensor.Reuse2D(a.act, batch, 2*k)
	a.clamped = slices.Grow(a.clamped[:0], batch*k)[:batch*k]
	act, clamped = a.act, a.clamped
	for i := 0; i < batch; i++ {
		rr, ar := raw.Row(i), act.Row(i)
		for j := 0; j < k; j++ {
			mu := rr[j]
			ar[j] = mu
			sp := mathx.Softplus(rr[k+j])
			bound := a.cfg.Beta * math.Abs(mu)
			clamped[i*k+j] = sp > bound
			if clamped[i*k+j] {
				ar[k+j] = bound
			} else {
				ar[k+j] = sp
			}
		}
	}
	return act, clamped
}

// actionBackward chains dQ/dAction to dQ/dRaw given the transform record.
func (a *Agent) actionBackward(raw, dAct *tensor.Tensor, clamped []bool) *tensor.Tensor {
	k := a.cfg.K
	batch := raw.Rows()
	a.dRaw = tensor.Reuse2D(a.dRaw, batch, 2*k)
	dRaw := a.dRaw
	for i := 0; i < batch; i++ {
		rr, da, dr := raw.Row(i), dAct.Row(i), dRaw.Row(i)
		for j := 0; j < k; j++ {
			dMu, dSigma := da[j], da[k+j]
			dr[j] = dMu
			if clamped[i*k+j] {
				// σ = β·|μ|: gradient flows into μ.
				sign := 1.0
				if rr[j] < 0 {
					sign = -1
				}
				dr[j] += dSigma * a.cfg.Beta * sign
				dr[k+j] = 0
			} else {
				// σ = softplus(raw): d softplus = sigmoid.
				dr[k+j] = dSigma / (1 + math.Exp(-rr[k+j]))
			}
		}
	}
	return dRaw
}

// Act runs the main policy on one state and returns the constrained
// action (K means followed by K standard deviations). With explore,
// Gaussian noise ε ~ N(0, ExploreStd²) is added to the raw policy output
// before the constraint (Algorithm 2 line 14).
func (a *Agent) Act(state []float64, explore bool) []float64 {
	if len(state) != a.cfg.StateDim() {
		panic(fmt.Sprintf("core: Act state length %d, want %d", len(state), a.cfg.StateDim()))
	}
	a.st = tensor.Reuse2D(a.st, 1, len(state))
	copy(a.st.Data, state)
	raw := a.policy.ForwardScratch(a.psc, a.st, false)
	if explore && a.cfg.ExploreStd > 0 {
		std := a.cfg.ExploreStd * a.exploreScale
		for i := range raw.Data {
			raw.Data[i] += a.rng.Normal(0, std)
		}
		a.exploreScale *= a.cfg.ExploreDecay
	}
	act, _ := a.actionTransform(raw)
	return append([]float64(nil), act.Row(0)...)
}

// ImpactFactors converts an action into the aggregation weights of
// Eq. 5: α = softmax(z), z_k ~ N(μ_k, σ_k) when explore, z_k = μ_k
// otherwise. The result is a convex combination (non-negative, sums to 1).
func (a *Agent) ImpactFactors(action []float64, explore bool) []float64 {
	k := a.cfg.K
	if len(action) != 2*k {
		panic(fmt.Sprintf("core: ImpactFactors action length %d, want %d", len(action), 2*k))
	}
	z := make([]float64, k)
	for i := 0; i < k; i++ {
		if explore {
			z[i] = a.rng.Normal(action[i], action[k+i])
		} else {
			z[i] = action[i]
		}
	}
	return mathx.Softmax(z)
}

// ImpactFactorsWithPrior converts an action into aggregation weights
// anchored on a prior: α = softmax(z + log prior), z_k ~ N(μ_k, σ_k)
// when explore (z_k = μ_k otherwise). A zero action reproduces the prior
// exactly, so the policy learns *deviations* from it — the residual
// parameterization the FL aggregator uses with the FedAvg prior at
// compressed round budgets (DESIGN.md "compressed-horizon adaptations").
func (a *Agent) ImpactFactorsWithPrior(action, prior []float64, explore bool) []float64 {
	k := a.cfg.K
	if len(action) != 2*k || len(prior) != k {
		panic(fmt.Sprintf("core: ImpactFactorsWithPrior lengths %d/%d, want %d/%d",
			len(action), len(prior), 2*k, k))
	}
	z := make([]float64, k)
	for i := 0; i < k; i++ {
		if explore {
			z[i] = a.rng.Normal(action[i], action[k+i])
		} else {
			z[i] = action[i]
		}
		p := prior[i]
		if p < 1e-12 {
			p = 1e-12
		}
		z[i] += math.Log(p)
	}
	return mathx.Softmax(z)
}

// Reward computes Eq. 7 (negated for maximization; see DESIGN.md §5):
// r = −( mean(l_b) + w·(max(l_b) − min(l_b)) ) over the next round's
// global-model losses.
func (a *Agent) Reward(nextLossesBefore []float64) float64 {
	return RewardOf(a.cfg, nextLossesBefore)
}

// RewardOf is the package-level form of Agent.Reward (Eq. 7, negated).
func RewardOf(cfg Config, nextLossesBefore []float64) float64 {
	if len(nextLossesBefore) == 0 {
		panic("core: Reward with no losses")
	}
	avg := mathx.Mean(nextLossesBefore)
	gap := mathx.Max(nextLossesBefore) - mathx.Min(nextLossesBefore)
	return -(avg + cfg.RewardGapWeight*gap)
}

// Observe stores a non-terminal transition in the buffer with its
// current TD error as priority. It reports whether the experience was
// accepted (non-finite data is rejected) and panics on vectors of the
// wrong length. The FL aggregation task is a continuing one; episodic
// environments should use ObserveDone for terminal steps.
func (a *Agent) Observe(s, act []float64, r float64, s2 []float64) bool {
	return a.observe(s, act, r, s2, false)
}

// ObserveDone stores a terminal transition: the TD target is r alone,
// without bootstrapping through s′.
func (a *Agent) ObserveDone(s, act []float64, r float64, s2 []float64) bool {
	return a.observe(s, act, r, s2, true)
}

func (a *Agent) observe(s, act []float64, r float64, s2 []float64, done bool) bool {
	sd, ad := a.cfg.StateDim(), a.cfg.ActionDim()
	if len(s) != sd || len(act) != ad || len(s2) != sd {
		panic(fmt.Sprintf("core: Observe lengths %d/%d/%d, want %d/%d/%d", len(s), len(act), len(s2), sd, ad, sd))
	}
	// Q(s′, a) and Q(s, a) in one two-row pass.
	a.sa = tensor.Reuse2D(a.sa, 2, sd+ad)
	packSA(a.sa.Row(0), s2, act)
	packSA(a.sa.Row(1), s, act)
	q := a.value.ForwardScratch(a.vsc, a.sa, false).Data
	target := r
	if !done {
		target += a.cfg.Gamma * q[0]
	}
	prior := target - q[1]
	// The stored vectors share one backing array.
	v := make([]float64, 2*sd+ad)
	copy(v, s)
	copy(v[sd:], act)
	copy(v[sd+ad:], s2)
	return a.Buffer.Add(replay.Experience{
		S:     v[:sd:sd],
		A:     v[sd : sd+ad : sd+ad],
		R:     r,
		S2:    v[sd+ad:],
		Done:  done,
		Prior: math.Abs(prior),
	})
}

// ReadyToTrain reports whether the buffer has reached the warmup fill
// ("if D is sufficient", Algorithm 2 line 19).
func (a *Agent) ReadyToTrain() bool { return a.Buffer.Len() >= a.cfg.WarmupExperiences }

// reprioritize is Algorithm 1 lines 1–2: every buffered experience's
// priority becomes its TD error |r + γ·Q(s′,a) − Q(s,a)| (r alone for
// terminal ones) under the current value network, one tdChunk-sized
// batch pass at a time, and the buffer is re-sorted by it.
func (a *Agent) reprioritize() {
	all := a.Buffer.All()
	a.prio = slices.Grow(a.prio[:0], len(all))[:len(all)]
	sd, ad := a.cfg.StateDim(), a.cfg.ActionDim()
	for lo := 0; lo < len(all); lo += tdChunk {
		chunk := all[lo:min(lo+tdChunk, len(all))]
		m := len(chunk)
		a.sa = tensor.Reuse2D(a.sa, 2*m, sd+ad)
		for i, e := range chunk {
			packSA(a.sa.Row(i), e.S, e.A)
			packSA(a.sa.Row(m+i), e.S2, e.A)
		}
		q := a.value.ForwardScratch(a.vsc, a.sa, false).Data
		for i, e := range chunk {
			target := e.R
			if !e.Done {
				target += a.cfg.Gamma * q[m+i]
			}
			a.prio[lo+i] = target - q[i]
		}
	}
	a.Buffer.Reprioritize(a.prio)
}

// targetQ computes the bootstrap targets y = r + γ·Q′(s′, π′(s′)) of a
// batch (Algorithm 1 line 5) into the agent's reusable target slice.
func (a *Agent) targetQ(batch []replay.Experience) []float64 {
	n := len(batch)
	sd, ad := a.cfg.StateDim(), a.cfg.ActionDim()
	a.st = tensor.Reuse2D(a.st, n, sd)
	for i, e := range batch {
		copy(a.st.Row(i), e.S2)
	}
	act, _ := a.actionTransform(a.policyT.ForwardScratch(a.ptsc, a.st, false))
	a.sa = tensor.Reuse2D(a.sa, n, sd+ad)
	for i := 0; i < n; i++ {
		packSA(a.sa.Row(i), a.st.Row(i), act.Row(i))
	}
	q := a.valueT.ForwardScratch(a.vtsc, a.sa, false).Data
	a.targets = slices.Grow(a.targets[:0], n)[:n]
	for i, e := range batch {
		a.targets[i] = e.R
		if !e.Done {
			a.targets[i] += a.cfg.Gamma * q[i]
		}
	}
	return a.targets
}

// Train performs Algorithm 1: reprioritize the buffer by TD error, then
// UpdatesPerRound iterations of value descent, policy ascent and soft
// target updates. It is a no-op until ReadyToTrain.
func (a *Agent) Train() {
	if !a.ReadyToTrain() {
		return
	}
	// Lines 1–2: TD-error priorities under the current value network.
	a.reprioritize()
	sd, ad := a.cfg.StateDim(), a.cfg.ActionDim()
	for step := 0; step < a.cfg.UpdatesPerRound; step++ {
		n := min(a.cfg.BatchSize, a.Buffer.Len())
		a.batch = slices.Grow(a.batch[:0], n)[:n]
		a.Buffer.SampleInto(a.batch)
		targets := a.targetQ(a.batch)

		// Line 6: value descent on (Q(s,a) − y)².
		a.sa = tensor.Reuse2D(a.sa, n, sd+ad)
		for i, e := range a.batch {
			packSA(a.sa.Row(i), e.S, e.A)
		}
		// Both networks' gradients are zero between steps: each optimizer
		// step clears its network's after use, and the critic pass of
		// the policy step below accumulates none.
		pred := a.value.ForwardScratch(a.vsc, a.sa, true)
		a.mse.Forward(pred, targets)
		a.value.BackwardParams(a.vsc, a.mse.Backward())
		a.vopt.Step(a.value)
		a.value.ZeroGrads()

		// Line 7: policy ascent on mean Q(s, π(s)).
		a.st = tensor.Reuse2D(a.st, n, sd)
		for i, e := range a.batch {
			copy(a.st.Row(i), e.S)
		}
		raw := a.policy.ForwardScratch(a.psc, a.st, true)
		act, clamped := a.actionTransform(raw)
		a.sa = tensor.Reuse2D(a.sa, n, sd+ad)
		for i := 0; i < n; i++ {
			packSA(a.sa.Row(i), a.st.Row(i), act.Row(i))
		}
		a.value.ForwardScratch(a.vsc, a.sa, true)
		// dMeanQ/dQ_i = 1/n; ascend → feed −1/n and let Adam minimize.
		a.up = tensor.Reuse2D(a.up, n, 1)
		for i := range a.up.Data {
			a.up.Data[i] = -1.0 / float64(n)
		}
		dIn := a.value.BackwardInput(a.vsc, a.up)
		a.dAct = tensor.Reuse2D(a.dAct, n, ad)
		for i := 0; i < n; i++ {
			copy(a.dAct.Row(i), dIn.Row(i)[sd:])
		}
		dRaw := a.actionBackward(raw, a.dAct, clamped)
		a.policy.BackwardParams(a.psc, dRaw)
		a.popt.Step(a.policy)
		a.policy.ZeroGrads()

		// Lines 8–9: ρ-soft target updates.
		a.policyT.SoftUpdateFrom(a.policy, a.cfg.Rho)
		a.valueT.SoftUpdateFrom(a.value, a.cfg.Rho)
	}
}

// CopyPolicyFrom copies another agent's policy and value networks into
// this agent (mains and targets). Configurations must agree on K and
// Hidden.
func (a *Agent) CopyPolicyFrom(src *Agent) {
	a.policy.CopyFrom(src.policy)
	a.policyT.CopyFrom(src.policyT)
	a.value.CopyFrom(src.value)
	a.valueT.CopyFrom(src.valueT)
}
