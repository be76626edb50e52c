package fl

import "feddrl/internal/rng"

// Population is the Selector's read-only view of the client fleet: the
// size of the eligible (non-empty) population. It exposes no []*Client
// slice: in virtual-client mode (ClientPool) no client objects exist
// outside the K active slots, and a selector over a million identities
// must not force them into existence. Indices are eligible-client
// indices, the same index space for eager and virtual runs, which is
// part of the bit-identity contract between the two.
type Population interface {
	// NumClients returns the number of eligible (non-empty) clients.
	NumClients() int
}

// Selector chooses which clients participate each round.
// UniformSelector is the default and the paper's setting (§4.1.2); the
// paper's §1 cites client selection only as an approach FedDRL is
// orthogonal to.
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
