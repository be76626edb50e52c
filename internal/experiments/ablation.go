package experiments

import (
	"fmt"

	"feddrl/internal/core"
	"feddrl/internal/dataset"
	"feddrl/internal/fl"
	"feddrl/internal/metrics"
)

// ablationRun runs one ablation cell through the grid's runCell:
// method on dataset ds, CE partition, SmallN clients with full
// participation (§4.1.2), so it is seeded exactly like the matching
// grid cell. The scale-wide attack knobs are cleared because the
// ablations study the agent on a benign federation. Its cells are valid
// by construction, so an error is a bug.
func ablationRun(s Scale, ds, method string, seed uint64, variant func(*fl.FedDRL)) *fl.Result {
	s.Attack, s.AttackFrac, s.Merger = "", 0, ""
	res, err := runCell(s, table3Spec(s, ds, "CE", method, s.SmallN, seed), dataset.Synthesize, nil, variant)
	if err != nil {
		panic(err)
	}
	return res
}

// agentVariant is a variant hook that rebuilds the cell's agent from its
// own configuration with modify applied.
func agentVariant(modify func(*core.Config)) func(*fl.FedDRL) {
	return func(d *fl.FedDRL) {
		cfg := d.Agent.Config()
		modify(&cfg)
		d.Agent = core.NewAgent(cfg)
	}
}

// AblationPrior compares the FedAvg-anchored residual parameterization
// (α = softmax(z + log n_k/Σn), DESIGN.md "compressed-horizon
// adaptations") against the paper's plain softmax actions (Eq. 5), on
// the 100-class dataset where the difference is largest.
func AblationPrior(s Scale, seed uint64) string {
	ds := s.datasets()[0].Name // cifar100-sim
	withPrior := ablationRun(s, ds, "FedDRL", seed, nil)
	without := ablationRun(s, ds, "FedDRL", seed, func(d *fl.FedDRL) { d.FedAvgPrior = false })
	avg := ablationRun(s, ds, "FedAvg", seed, nil)
	tab := &metrics.Table{
		Title:   "Ablation: FedAvg-anchored actions vs plain Eq. 5 softmax, cifar100-sim / CE",
		Headers: []string{"variant", "best acc", "final acc"},
	}
	tab.AddRow("FedAvg baseline", metrics.F(avg.Best()), metrics.F(avg.Final()))
	tab.AddRow("FedDRL, prior-anchored", metrics.F(withPrior.Best()), metrics.F(withPrior.Final()))
	tab.AddRow("FedDRL, plain softmax", metrics.F(without.Best()), metrics.F(without.Final()))
	return tab.RenderString()
}

// AblationRewardGap compares the full Eq. 7 reward against a variant
// without the fairness (max−min) term. The fairness term should reduce
// the variance of client inference losses.
func AblationRewardGap(s Scale, seed uint64) string {
	tail := max(s.Rounds/4, 1)
	full := ablationRun(s, "mnist-sim", "FedDRL", seed, nil)
	noGap := ablationRun(s, "mnist-sim", "FedDRL", seed, agentVariant(func(c *core.Config) { c.RewardGapWeight = 0 }))
	tab := &metrics.Table{
		Title:   "Ablation: reward fairness term (Eq. 7 gap component), mnist-sim / CE",
		Headers: []string{"variant", "best acc", "client loss var (tail)"},
	}
	tab.AddRow("full reward (gap w=1)", metrics.F(full.Best()), fmt.Sprintf("%.4f", full.ClientLossVars().Tail(tail)))
	tab.AddRow("mean-only (gap w=0)", metrics.F(noGap.Best()), fmt.Sprintf("%.4f", noGap.ClientLossVars().Tail(tail)))
	return tab.RenderString()
}

// AblationStateNorm compares normalized against raw state encodings
// (DESIGN.md §6 records normalization as a stability choice the paper
// leaves unspecified).
func AblationStateNorm(s Scale, seed uint64) string {
	norm := ablationRun(s, "mnist-sim", "FedDRL", seed, nil)
	raw := ablationRun(s, "mnist-sim", "FedDRL", seed, agentVariant(func(c *core.Config) { c.NormalizeState = false }))
	tab := &metrics.Table{
		Title:   "Ablation: state normalization, mnist-sim / CE",
		Headers: []string{"variant", "best acc", "final acc"},
	}
	tab.AddRow("normalized state", metrics.F(norm.Best()), metrics.F(norm.Final()))
	tab.AddRow("raw state", metrics.F(raw.Best()), metrics.F(raw.Final()))
	return tab.RenderString()
}

// AblationTwoStage compares a FedDRL run whose agent was pre-trained with
// the two-stage strategy (§3.4.2: m online workers on simulated FL
// environments, then offline training on the merged buffer) against a
// cold-started agent. Pre-training should help most in early rounds.
func AblationTwoStage(s Scale, seed uint64) string {
	spec := dataset.MNISTSim().Scaled(s.DataScale)
	k := s.SmallN // full participation at the small federation size
	drlCfg := s.drlConfig(k, seed+3)

	// Stage 1+2: two workers on independently seeded FL environments.
	episode := max(s.Rounds/2, 3)
	res := core.TrainTwoStage(drlCfg, func(w int, wseed uint64) core.Env {
		return newFLEnv(s, spec, drlCfg, wseed+uint64(w)*977, episode)
	}, 2, episode, 4)

	pre := ablationRun(s, spec.Name, "FedDRL", seed, func(d *fl.FedDRL) { d.Agent = res.Agent })
	cold := ablationRun(s, spec.Name, "FedDRL", seed, nil)

	early := max(len(pre.Accuracy)/3, 1)
	tab := &metrics.Table{
		Title:   "Ablation: two-stage pre-training vs cold start, mnist-sim / CE",
		Headers: []string{"variant", "best acc", "early-rounds mean acc", "worker experiences"},
	}
	tab.AddRow("two-stage pre-trained",
		metrics.F(pre.Best()),
		metrics.F(pre.Accuracy[:early].Mean()),
		fmt.Sprintf("%v", res.WorkerExperiences))
	tab.AddRow("cold start (basic training)",
		metrics.F(cold.Best()),
		metrics.F(cold.Accuracy[:early].Mean()),
		"-")
	return tab.RenderString()
}
