package partition

import (
	"fmt"

	"feddrl/internal/dataset"
	"feddrl/internal/rng"
)

// Dirichlet implements the label-distribution-imbalance partitioner of
// the paper's related work (§2.2.1, citing [8, 13, 22, 24]): for every
// label, the per-client shares are drawn from Dir(alpha·1). Smaller
// alpha yields stronger label skew (alpha → 0 approaches one-client-per-
// label; alpha → ∞ approaches IID). It is not one of the paper's three
// evaluation partitions but is the de-facto standard in the literature
// the paper compares against, so the library provides it for downstream
// experiments.
func Dirichlet(d *dataset.Dataset, nClients int, alpha float64, r *rng.RNG) *Assignment {
	d.Validate()
	if nClients <= 0 {
		panic("partition: Dirichlet with no clients")
	}
	if !(alpha > 0) {
		panic(fmt.Sprintf("partition: Dirichlet with non-positive alpha %v", alpha))
	}
	conc := make([]float64, nClients)
	for i := range conc {
		conc[i] = alpha
	}
	a := &Assignment{
		Method:        "Dirichlet",
		ClientIndices: make([][]int, nClients),
		Clusters:      noClusters(nClients),
	}
	for _, pool := range d.ByClass() {
		if len(pool) == 0 {
			continue
		}
		r.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
		shares := r.Dirichlet(conc)
		start, prevCum := 0, 0
		acc := 0.0
		for k := 0; k < nClients; k++ {
			acc += shares[k]
			cum := int(acc*float64(len(pool)) + 0.5)
			if k == nClients-1 {
				cum = len(pool)
			}
			take := cum - prevCum
			prevCum = cum
			end := start + take
			if end > len(pool) {
				end = len(pool)
			}
			a.ClientIndices[k] = append(a.ClientIndices[k], pool[start:end]...)
			start = end
		}
	}
	return a
}
