package fl

import (
	"fmt"

	"feddrl/internal/rng"
)

// Population is the Selector's read-only view of the client fleet. It
// deliberately exposes per-client scalars rather than a []*Client slice:
// in virtual-client mode (ClientPool) no client objects exist outside
// the K active slots, and a selector over a million identities must not
// force them into existence. Indices are eligible-client indices — the
// same index space for eager and virtual runs, which is part of the
// bit-identity contract between the two.
type Population interface {
	// NumClients returns the number of eligible (non-empty) clients.
	NumClients() int
	// SampleCount returns client i's shard size.
	SampleCount(i int) int
	// LastLoss returns client i's most recent global-model inference
	// loss, 0 when never measured.
	LastLoss(i int) float64
}

// Selector chooses which clients participate each round. The paper's
// §1 cites client selection as the *alternative* family of solutions to
// statistical heterogeneity [3, 21, 30]; the library makes the strategy
// pluggable so FedDRL's aggregation-side adaptation can be combined with
// or compared against selection-side approaches. The default (and the
// paper's setting, §4.1.2) is uniform random selection.
type Selector interface {
	// Name identifies the strategy.
	Name() string
	// Select returns at most k distinct indices into the eligible
	// population. A run panics, naming the selector, on a repeated
	// index or on more than k.
	Select(round, k int, pop Population, r *rng.RNG) []int
}

// chooseCutoff is the population size above which uniform selection
// switches from permutation sampling to rejection sampling: Choose
// allocates and shuffles an O(n) permutation, which at a million virtual
// clients would dominate every round. Below the cutoff the historical
// Choose stream is preserved, so existing small-population runs (and
// their cached experiment artifacts) are unchanged bit for bit. Eager
// and virtual runs over the same population take the same branch, so
// the two stay bit-identical at every n.
const chooseCutoff = 1 << 12

// chooseDistinct draws k distinct indices uniformly from [0, n).
func chooseDistinct(n, k int, r *rng.RNG) []int {
	if n <= chooseCutoff {
		return r.Choose(n, k)
	}
	out := make([]int, 0, k)
	seen := make(map[int]struct{}, k)
	for len(out) < k {
		v := r.Intn(n)
		if _, dup := seen[v]; dup {
			continue
		}
		seen[v] = struct{}{}
		out = append(out, v)
	}
	return out
}

// UniformSelector draws K clients uniformly without replacement — the
// FedAvg/paper default.
type UniformSelector struct{}

// Name returns "uniform".
func (UniformSelector) Name() string { return "uniform" }

// Select implements Selector.
func (UniformSelector) Select(round, k int, pop Population, r *rng.RNG) []int {
	return chooseDistinct(pop.NumClients(), k, r)
}

// SizeWeightedSelector samples clients with probability proportional to
// their shard size (without replacement), the common importance-sampling
// variant. It walks the full population per round (O(n)), so it is meant
// for eager-scale fleets, not million-client virtual runs.
type SizeWeightedSelector struct{}

// Name returns "size-weighted".
func (SizeWeightedSelector) Name() string { return "size-weighted" }

// Select implements Selector.
func (SizeWeightedSelector) Select(round, k int, pop Population, r *rng.RNG) []int {
	weights := make([]float64, pop.NumClients())
	for i := range weights {
		weights[i] = float64(pop.SampleCount(i))
	}
	return sampleWithoutReplacement(weights, k, r)
}

// PowerOfChoiceSelector implements the power-of-d-choice strategy of Cho
// et al. (cited as [3]): sample a candidate set of d·k clients uniformly,
// then keep the k with the highest current loss (the clients the global
// model serves worst), which speeds convergence under heterogeneity.
type PowerOfChoiceSelector struct {
	// D is the candidate multiplier (d≥1); d=1 degenerates to uniform.
	D int
}

// Name returns "power-of-choice".
func (PowerOfChoiceSelector) Name() string { return "power-of-choice" }

// Select implements Selector.
func (s PowerOfChoiceSelector) Select(round, k int, pop Population, r *rng.RNG) []int {
	d := s.D
	if d < 1 {
		d = 2
	}
	cand := d * k
	if cand > pop.NumClients() {
		cand = pop.NumClients()
	}
	candidates := chooseDistinct(pop.NumClients(), cand, r)
	// Highest-loss k of the candidate set (selection sort: k is small).
	for i := 0; i < k && i < len(candidates); i++ {
		best := i
		for j := i + 1; j < len(candidates); j++ {
			if pop.LastLoss(candidates[j]) > pop.LastLoss(candidates[best]) {
				best = j
			}
		}
		candidates[i], candidates[best] = candidates[best], candidates[i]
	}
	return candidates[:k]
}

// RoundRobinSelector cycles deterministically through the clients, a
// fairness-first baseline.
type RoundRobinSelector struct{}

// Name returns "round-robin".
func (RoundRobinSelector) Name() string { return "round-robin" }

// Select implements Selector.
func (RoundRobinSelector) Select(round, k int, pop Population, r *rng.RNG) []int {
	out := make([]int, k)
	for i := 0; i < k; i++ {
		out[i] = (round*k + i) % pop.NumClients()
	}
	return out
}

// sampleWithoutReplacement draws k distinct indices with probability
// proportional to weights.
func sampleWithoutReplacement(weights []float64, k int, r *rng.RNG) []int {
	n := len(weights)
	if k > n {
		panic(fmt.Sprintf("fl: sample %d of %d", k, n))
	}
	w := append([]float64(nil), weights...)
	out := make([]int, 0, k)
	chosen := make([]bool, n)
	for len(out) < k {
		total := 0.0
		for i, v := range w {
			if !chosen[i] {
				total += v
			}
		}
		if total <= 0 {
			// Remaining weights all zero: fall back to uniform over the
			// unchosen clients.
			for i := 0; len(out) < k && i < n; i++ {
				if !chosen[i] {
					chosen[i] = true
					out = append(out, i)
				}
			}
			break
		}
		u := r.Float64() * total
		acc := 0.0
		for i, v := range w {
			if chosen[i] {
				continue
			}
			acc += v
			if u < acc {
				chosen[i] = true
				out = append(out, i)
				break
			}
		}
	}
	return out
}
