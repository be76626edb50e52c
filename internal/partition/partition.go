// Package partition implements the non-IID data partitioners the paper
// studies (§4.1.1, §5.1, Table 2):
//
//   - PA  (Pareto): label-size + quantity imbalance; the samples of each
//     label are split among its owner clients following a power law.
//   - CE  (Clustered-Equal): the paper's novel *cluster skew*. Clients
//     are arranged into groups; one main group holds δ·N clients. Labels
//     are partitioned into per-group clusters; each client draws its
//     (two) labels from its group's cluster. Sample counts are equal
//     across clients.
//   - CN  (Clustered-Non-Equal): CE plus quantity skew.
//   - Equal / Non-equal shards: the FedAvg-style label-size imbalance of
//     §5.1 (2N sorted shards with 2 per client; 10N shards with 6–14 per
//     client).
//
// Every partitioner returns an Assignment whose client index lists are
// pairwise disjoint (verified by Stats and by property tests). PA and the
// shard partitioners cover the full dataset; CE/CN may leave a remainder
// unassigned to honour their equal-quota constraint.
package partition

import (
	"fmt"

	"feddrl/internal/dataset"
	"feddrl/internal/rng"
)

// Assignment maps every client to the dataset indices it owns.
type Assignment struct {
	Method        string
	ClientIndices [][]int
	// Clusters is the group id of each client for the clustered methods,
	// or -1 for methods without group structure.
	Clusters  []int
	NumGroups int
}

// NumClients returns the number of clients in the assignment.
func (a *Assignment) NumClients() int { return len(a.ClientIndices) }

// Counts returns per-client sample counts.
func (a *Assignment) Counts() []int {
	out := make([]int, len(a.ClientIndices))
	for i, idx := range a.ClientIndices {
		out[i] = len(idx)
	}
	return out
}

func noClusters(n int) []int {
	c := make([]int, n)
	for i := range c {
		c[i] = -1
	}
	return c
}

// assignLabelsRoundRobin gives each of n clients `per` distinct labels,
// cycling through a shuffled label order so that every label is owned by
// at least one client whenever n*per >= classes.
func assignLabelsRoundRobin(classes, n, per int, r *rng.RNG) [][]int {
	if per > classes {
		panic(fmt.Sprintf("partition: %d labels per client exceeds %d classes", per, classes))
	}
	order := r.Perm(classes)
	out := make([][]int, n)
	pos := 0
	for k := 0; k < n; k++ {
		seen := map[int]bool{}
		for len(out[k]) < per {
			l := order[pos%classes]
			pos++
			if !seen[l] {
				seen[l] = true
				out[k] = append(out[k], l)
			}
		}
	}
	return out
}

// Pareto implements the PA partitioner: each client owns labelsPerClient
// labels (2 for the 10-class datasets, 20 for cifar100-sim in the paper)
// and the samples of each label are divided among its owners with
// power-law weights of exponent alpha (label-size + quantity imbalance,
// Table 2 row PA).
func Pareto(d *dataset.Dataset, nClients, labelsPerClient int, alpha float64, r *rng.RNG) *Assignment {
	if nClients <= 0 {
		panic("partition: Pareto with no clients")
	}
	d.Validate()
	clientLabels := assignLabelsRoundRobin(d.NumClasses, nClients, labelsPerClient, r)

	// owners[l] = clients owning label l.
	owners := make([][]int, d.NumClasses)
	for k, labels := range clientLabels {
		for _, l := range labels {
			owners[l] = append(owners[l], k)
		}
	}

	a := &Assignment{
		Method:        "PA",
		ClientIndices: make([][]int, nClients),
		Clusters:      noClusters(nClients),
	}
	byClass := d.ByClass()
	for l, pool := range byClass {
		if len(owners[l]) == 0 || len(pool) == 0 {
			continue
		}
		r.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
		w := r.PowerLawWeights(len(owners[l]), alpha)
		// Every owner receives a floor of one sample when the pool allows
		// (otherwise power-law tails starve clients entirely), and the
		// remainder is divided by power-law cut points.
		floor := 0
		if len(pool) >= len(owners[l]) {
			floor = 1
		}
		remaining := len(pool) - floor*len(owners[l])
		start, prevExtra := 0, 0
		acc := 0.0
		for oi, client := range owners[l] {
			acc += w[oi]
			cumExtra := int(acc*float64(remaining) + 0.5)
			if oi == len(owners[l])-1 {
				cumExtra = remaining
			}
			take := floor + (cumExtra - prevExtra)
			prevExtra = cumExtra
			end := start + take
			if end > len(pool) {
				end = len(pool)
			}
			a.ClientIndices[client] = append(a.ClientIndices[client], pool[start:end]...)
			start = end
		}
	}
	return a
}

// clusterConfig holds the shared group scaffolding of CE and CN.
type clusterConfig struct {
	groupOf     []int   // group id per client
	labelBlocks [][]int // labels per group
}

// buildClusters arranges clients into numGroups groups with a main group
// of max(1, round(delta*n)) clients (higher δ = stronger bias toward the
// main group, §4.3.2) and partitions the label space into contiguous
// per-group blocks.
func buildClusters(classes, n int, delta float64, labelsPerClient, numGroups int, r *rng.RNG) clusterConfig {
	if numGroups < 2 {
		panic("partition: clustered methods need at least 2 groups")
	}
	if !(0 < delta && delta < 1) {
		panic(fmt.Sprintf("partition: delta %v out of (0,1)", delta))
	}
	if classes < numGroups*labelsPerClient {
		panic(fmt.Sprintf("partition: %d classes cannot host %d groups of %d labels", classes, numGroups, labelsPerClient))
	}
	mainSize := int(float64(n)*delta + 0.5)
	if mainSize < 1 {
		mainSize = 1
	}
	if mainSize > n-(numGroups-1) {
		mainSize = n - (numGroups - 1) // leave at least one client per other group
	}
	groupOf := make([]int, n)
	for i := 0; i < mainSize; i++ {
		groupOf[i] = 0
	}
	g := 1
	for i := mainSize; i < n; i++ {
		groupOf[i] = g
		g++
		if g == numGroups {
			g = 1
		}
	}
	// Shuffle client→group so the main group is not always clients 0..m.
	r.Shuffle(n, func(i, j int) { groupOf[i], groupOf[j] = groupOf[j], groupOf[i] })

	// Contiguous label blocks over a shuffled label order.
	order := r.Perm(classes)
	blocks := make([][]int, numGroups)
	base := classes / numGroups
	extra := classes % numGroups
	pos := 0
	for gi := 0; gi < numGroups; gi++ {
		size := base
		if gi < extra {
			size++
		}
		blocks[gi] = append([]int(nil), order[pos:pos+size]...)
		pos += size
	}
	return clusterConfig{groupOf: groupOf, labelBlocks: blocks}
}

// clusteredAssign performs the shared CE/CN allocation. weights gives the
// per-client demand weight (all 1 for CE; power-law for CN).
func clusteredAssign(d *dataset.Dataset, cc clusterConfig, labelsPerClient int, weights []float64, method string, r *rng.RNG) *Assignment {
	n := len(cc.groupOf)
	// Each client draws labelsPerClient distinct labels from its group's
	// block.
	clientLabels := make([][]int, n)
	for k := 0; k < n; k++ {
		block := cc.labelBlocks[cc.groupOf[k]]
		pick := r.Choose(len(block), labelsPerClient)
		for _, p := range pick {
			clientLabels[k] = append(clientLabels[k], block[p])
		}
	}
	// demand[l] = total weight requesting label l.
	demand := make([]float64, d.NumClasses)
	for k, labels := range clientLabels {
		for _, l := range labels {
			demand[l] += weights[k]
		}
	}
	// Equal-quota constraint: every unit of weight receives q samples of
	// each of its labels, with q limited by the scarcest requested label.
	byClass := d.ByClass()
	q := -1.0
	for l, dm := range demand {
		if dm == 0 {
			continue
		}
		avail := float64(len(byClass[l])) / dm
		if q < 0 || avail < q {
			q = avail
		}
	}
	if q < 0 {
		panic("partition: clustered assignment with no demand")
	}

	a := &Assignment{
		Method:        method,
		ClientIndices: make([][]int, n),
		Clusters:      append([]int(nil), cc.groupOf...),
		NumGroups:     len(cc.labelBlocks),
	}
	cursor := make([]int, d.NumClasses)
	for l := range byClass {
		pool := byClass[l]
		r.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	}
	for k, labels := range clientLabels {
		for _, l := range labels {
			take := int(q * weights[k])
			if take < 1 {
				take = 1
			}
			pool := byClass[l]
			if cursor[l]+take > len(pool) {
				take = len(pool) - cursor[l]
			}
			if take <= 0 {
				continue
			}
			a.ClientIndices[k] = append(a.ClientIndices[k], pool[cursor[l]:cursor[l]+take]...)
			cursor[l] += take
		}
	}
	return a
}

// ClusteredEqual implements CE: cluster skew with label-size imbalance
// but equal per-client quantities (Table 2 row CE).
func ClusteredEqual(d *dataset.Dataset, nClients int, delta float64, labelsPerClient, numGroups int, r *rng.RNG) *Assignment {
	d.Validate()
	if nClients < numGroups {
		panic("partition: fewer clients than groups")
	}
	cc := buildClusters(d.NumClasses, nClients, delta, labelsPerClient, numGroups, r)
	w := make([]float64, nClients)
	for i := range w {
		w[i] = 1
	}
	return clusteredAssign(d, cc, labelsPerClient, w, "CE", r)
}

// ClusteredNonEqual implements CN: CE plus quantity skew — per-client
// demand weights follow a power law with exponent skew (Table 2 row CN).
func ClusteredNonEqual(d *dataset.Dataset, nClients int, delta float64, labelsPerClient, numGroups int, skew float64, r *rng.RNG) *Assignment {
	d.Validate()
	if nClients < numGroups {
		panic("partition: fewer clients than groups")
	}
	cc := buildClusters(d.NumClasses, nClients, delta, labelsPerClient, numGroups, r)
	w := r.PowerLawWeights(nClients, skew)
	// Rescale to mean 1 so quotas stay comparable to CE.
	for i := range w {
		w[i] *= float64(nClients)
	}
	return clusteredAssign(d, cc, labelsPerClient, w, "CN", r)
}

// shardSplit sorts the dataset by label and cuts it into numShards
// near-equal contiguous shards (the FedAvg construction of §5.1).
func shardSplit(d *dataset.Dataset, numShards int) [][]int {
	byClass := d.ByClass()
	sorted := make([]int, 0, d.N)
	for _, pool := range byClass {
		sorted = append(sorted, pool...)
	}
	shards := make([][]int, numShards)
	base := len(sorted) / numShards
	extra := len(sorted) % numShards
	pos := 0
	for s := 0; s < numShards; s++ {
		size := base
		if s < extra {
			size++
		}
		shards[s] = sorted[pos : pos+size]
		pos += size
	}
	return shards
}

// EqualShards implements the "Equal" label-size-imbalance partition of
// §5.1: the label-sorted dataset is cut into shardsPerClient·N shards and
// every client receives shardsPerClient of them (2 in the paper), so all
// clients hold the same number of samples.
func EqualShards(d *dataset.Dataset, nClients, shardsPerClient int, r *rng.RNG) *Assignment {
	d.Validate()
	if nClients <= 0 || shardsPerClient <= 0 {
		panic("partition: EqualShards with non-positive sizes")
	}
	shards := shardSplit(d, nClients*shardsPerClient)
	perm := r.Perm(len(shards))
	a := &Assignment{
		Method:        "Equal",
		ClientIndices: make([][]int, nClients),
		Clusters:      noClusters(nClients),
	}
	for i, s := range perm {
		k := i / shardsPerClient
		a.ClientIndices[k] = append(a.ClientIndices[k], shards[s]...)
	}
	return a
}

// NonEqualShards implements the "Non-equal" partition of §5.1: the
// dataset is cut into shardFactor·N shards (10 in the paper) and each
// client receives a uniformly random number of shards in
// [minShards, maxShards] (6–14 in the paper), subject to availability;
// all shards are handed out.
func NonEqualShards(d *dataset.Dataset, nClients, shardFactor, minShards, maxShards int, r *rng.RNG) *Assignment {
	d.Validate()
	if nClients <= 0 || shardFactor <= 0 || minShards <= 0 || maxShards < minShards {
		panic("partition: NonEqualShards with inconsistent sizes")
	}
	total := nClients * shardFactor
	shards := shardSplit(d, total)
	perm := r.Perm(total)
	a := &Assignment{
		Method:        "Non-equal",
		ClientIndices: make([][]int, nClients),
		Clusters:      noClusters(nClients),
	}
	pos := 0
	for k := 0; k < nClients; k++ {
		want := minShards + r.Intn(maxShards-minShards+1)
		remainingClients := nClients - k - 1
		remainingShards := total - pos
		// Keep enough shards for the rest to receive at least minShards,
		// and never take fewer than needed to exhaust the supply.
		maxTake := remainingShards - remainingClients*minShards
		if want > maxTake {
			want = maxTake
		}
		minTake := remainingShards - remainingClients*maxShards
		if want < minTake {
			want = minTake
		}
		if want < 0 {
			want = 0
		}
		for i := 0; i < want; i++ {
			a.ClientIndices[k] = append(a.ClientIndices[k], shards[perm[pos]]...)
			pos++
		}
	}
	// Hand any remainder to the last client (can happen only when the
	// bounds were mutually unsatisfiable).
	for pos < total {
		a.ClientIndices[nClients-1] = append(a.ClientIndices[nClients-1], shards[perm[pos]]...)
		pos++
	}
	return a
}

// ByName builds the named partition with the paper's constants: PA with
// Pareto exponent 1.5, CE over three groups, CN over three groups with
// quantity skew 1, Equal with 2 shards per client and Non-equal with 10
// shards per client dealt 6 to 14 at a time. A client gets 2 labels, or
// 20 on a dataset of 100 or more classes (§4.1.1). delta applies to CE
// and CN only. It returns an error, and builds nothing, for an unknown
// name, fewer than 1 client, or, for CE and CN, fewer than 3 clients (one
// per group) or a delta outside (0, 1); NaN fails every range check.
func ByName(name string, d *dataset.Dataset, clients int, delta float64, r *rng.RNG) (*Assignment, error) {
	const groups = 3
	clustered := name == "CE" || name == "CN"
	switch {
	case !clustered && name != "PA" && name != "Equal" && name != "Non-equal":
		return nil, fmt.Errorf("partition: unknown partition %q (want PA, CE, CN, Equal or Non-equal)", name)
	case clients < 1:
		return nil, fmt.Errorf("partition: %s over %d clients, want at least 1", name, clients)
	case clustered && clients < groups:
		return nil, fmt.Errorf("partition: %s over %d clients, want at least %d (one per group)", name, clients, groups)
	case clustered && !(0 < delta && delta < 1):
		return nil, fmt.Errorf("partition: %s delta %v outside (0, 1)", name, delta)
	}
	labels := 2
	if d.NumClasses >= 100 {
		labels = 20
	}
	switch name {
	case "PA":
		return Pareto(d, clients, labels, 1.5, r), nil
	case "CE":
		return ClusteredEqual(d, clients, delta, labels, groups, r), nil
	case "CN":
		return ClusteredNonEqual(d, clients, delta, labels, groups, 1, r), nil
	case "Equal":
		return EqualShards(d, clients, 2, r), nil
	}
	return NonEqualShards(d, clients, 10, 6, 14, r), nil
}
