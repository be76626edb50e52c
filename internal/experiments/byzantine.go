package experiments

import (
	"fmt"
	"strings"

	"feddrl/internal/metrics"
)

// The byzantine experiment: FedAvg cells under seeded Byzantine fault
// injection (attack type × malicious fraction), merged by each robust
// merge rule. The grid renders the robustness story the paper's Fig. 6
// only gestures at — plain weighted averaging collapses under a 20%
// sign-flip cohort while coordinate-wise median, trimmed mean and Krum
// hold — and, like every other grid, decomposes into CellSpec jobs, so
// cells shard and cache like any benign cell (their 10-field keys keep
// them address-disjoint from the legacy 7-field population).

// byzantineAttack is one attack row of the grid.
type byzantineAttack struct {
	Name string
	Frac float64
}

// byzantineAttacks are the grid's rows: the benign baseline, sign-flip
// at two fractions, and one representative of each remaining attack
// family at 20%.
var byzantineAttacks = []byzantineAttack{
	{"none", 0},
	{"signflip", 0.2},
	{"signflip", 0.4},
	{"gauss", 0.2},
	{"replace", 0.2},
	{"labelflip", 0.2},
}

// byzantineMergers are the grid's merge-rule columns.
var byzantineMergers = []string{"weighted", "median", "trimmed", "krum"}

// byzantineDataset picks the grid's dataset: the fastest-converging one
// at every scale (mnist-sim), so the benign baseline is well above the
// random floor within the scale's round budget and an attack has
// headroom to destroy — cifar100-sim never leaves the floor at ci or
// medium rounds, which would flatten every column into noise.
func byzantineDataset(s Scale) string {
	ds := s.datasets()
	return ds[len(ds)-1].Name
}

// byzantineSpec builds one byzantine cell: mnist-sim on the Equal
// shard partition at LargeN clients, FedAvg as the aggregator under
// test. Equal keeps the robust mergers' benign baselines healthy — on
// the extreme 2-label CE partition a coordinate median across
// disjoint-label clients is already poor with no attacker at all.
// LargeN matters: membership is a per-identity Bernoulli trait (the
// N-independent contract that lets attacks scale to virtual pools), so
// at 10 clients the realized malicious count is noisy — a 20% row can
// draw zero attackers on an unlucky seed — while at LargeN the count
// concentrates near the nominal fraction for any seed.
func byzantineSpec(s Scale, att byzantineAttack, merger string, seed uint64) CellSpec {
	spec := table3Spec(s, byzantineDataset(s), "Equal", "FedAvg", s.LargeN, seed)
	// Full participation: with K-of-N sampling the per-cohort malicious
	// count is hypergeometric noise on top of the trait draw, and a trim
	// or tolerance sized for the nominal fraction loses to the variance
	// in one cohort out of five. K = N pins every round's realized
	// fraction to the identity draw, so each merge rule faces exactly
	// the contamination level its row declares.
	spec.K = spec.N
	spec.Attack = att.Name
	spec.AttackFrac = att.Frac
	spec.Merger = merger
	return spec
}

// byzantineJobs enumerates the attack × merger grid.
func byzantineJobs(s Scale, seed uint64) []CellSpec {
	var jobs []CellSpec
	for _, att := range byzantineAttacks {
		for _, m := range byzantineMergers {
			jobs = append(jobs, byzantineSpec(s, att, m, seed))
		}
	}
	return jobs
}

// renderByzantine formats the attack × merger grid as best-accuracy
// cells.
func renderByzantine(s Scale, seed uint64, _ int, get ArtifactGetter) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Byzantine robustness: FedAvg on %s / Equal, %d clients\n\n", byzantineDataset(s), s.LargeN)
	headers := append([]string{"attack"}, byzantineMergers...)
	tab := &metrics.Table{
		Title:   "best accuracy under attack × merge rule",
		Headers: headers,
	}
	for _, att := range byzantineAttacks {
		label := att.Name
		if att.Frac > 0 {
			label = fmt.Sprintf("%s %d%%", att.Name, int(att.Frac*100+0.5))
		}
		row := []string{label}
		for _, m := range byzantineMergers {
			a := get(byzantineSpec(s, att, m, seed))
			row = append(row, metrics.F(a.Best()))
		}
		tab.AddRow(row...)
	}
	b.WriteString(tab.RenderString())
	b.WriteString("\n(attacks are seeded and identity-stable: the listed fraction of client\n" +
		"identities corrupts its uploads — or, for labelflip, trains on flipped\n" +
		"labels — every round; \"weighted\" is the default impact-factor merge,\n" +
		"the robust columns merge by coordinate median, trimmed mean (trim\n" +
		"sized from the malicious fraction) and Krum selection over the same\n" +
		"cohorts)\n")
	return b.String()
}
