package experiments

import (
	"reflect"
	"testing"

	"feddrl/internal/dataset"
	"feddrl/internal/serialize"
)

// seriesSum hashes an artifact's series bit for bit, as a cache record
// stores them.
func seriesSum(a *CellArtifact) string {
	return cellPayloadSum(cellRecord("", a), "")
}

// TestSingleSetRunIgnoresClearedFields pins the premise of the run
// grouping: a SingleSet cell's result must not move when any field its
// run identity clears changes. Each variant runs one SingleSet cell
// through runCell and must give the base cell's artifact bit for bit,
// and every field runIdentity clears must be varied here.
func TestSingleSetRunIgnoresClearedFields(t *testing.T) {
	s := gridScale()
	base := CellSpec{Dataset: "mnist-sim", Partition: "PA", Method: "SingleSet", N: s.SmallN, K: s.K, Delta: defaultDelta, Seed: 5}
	type variant struct {
		name  string
		scale func(*Scale)
		cell  func(*CellSpec)
	}
	variants := []variant{
		{name: "N LargeN", cell: func(c *CellSpec) { c.N = s.LargeN }},
		{name: "K 1", cell: func(c *CellSpec) { c.K = 1 }},
		{name: "Delta 0.2", cell: func(c *CellSpec) { c.Delta = 0.2 }},
		{name: "cell signflip median", cell: func(c *CellSpec) { c.Attack, c.AttackFrac, c.Merger = "signflip", 0.2, "median" }},
		{name: "cell labelflip trimmed", cell: func(c *CellSpec) { c.Attack, c.AttackFrac, c.Merger = "labelflip", 0.4, "trimmed" }},
		{name: "scale gauss krum", scale: func(s *Scale) { s.Attack, s.AttackFrac, s.Merger = "gauss", 0.3, "krum" }},
	}
	for _, part := range []string{"CE", "CN", "Equal", "Non-equal"} {
		variants = append(variants, variant{name: "Partition " + part, cell: func(c *CellSpec) { c.Partition = part }})
	}

	run := func(s Scale, c CellSpec) string {
		t.Helper()
		res, err := runCell(s, c, dataset.Synthesize, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		return seriesSum(artifactOf(c, res))
	}
	want := run(s, base)
	varied := map[string]bool{}
	for _, v := range variants {
		vs, vc := s, base
		if v.scale != nil {
			v.scale(&vs)
		}
		if v.cell != nil {
			v.cell(&vc)
		}
		if runIdentity(vc) != runIdentity(base) {
			t.Fatalf("%s: run identity %+v, want the base cell's %+v", v.name, runIdentity(vc), runIdentity(base))
		}
		bv, vv := reflect.ValueOf(base), reflect.ValueOf(vc)
		for i := 0; i < bv.NumField(); i++ {
			if bv.Field(i).Interface() != vv.Field(i).Interface() {
				varied[bv.Type().Field(i).Name] = true
			}
		}
		if got := run(vs, vc); got != want {
			t.Errorf("%s: SingleSet artifact %s, want the base cell's %s", v.name, got, want)
		}
	}

	// Every field the identity clears on a spec with all fields set is
	// one a variant above changed; every other method keeps its spec.
	full := CellSpec{Dataset: "mnist-sim", Partition: "CE", Method: "SingleSet", N: 4, K: 3, Delta: 0.6, Seed: 5, Attack: "gauss", AttackFrac: 0.3, Merger: "krum"}
	id := reflect.ValueOf(runIdentity(full))
	fv := reflect.ValueOf(full)
	for i := 0; i < fv.NumField(); i++ {
		name := fv.Type().Field(i).Name
		if id.Field(i).Interface() != fv.Field(i).Interface() && !varied[name] {
			t.Errorf("runIdentity clears %s, which no variant changes", name)
		}
	}
	for _, m := range []string{"FedAvg", "FedProx", "FedDRL", "FedAvg+async", "FedDRL+stale", "SingleSet+async"} {
		c := full
		c.Method = m
		if runIdentity(c) != c {
			t.Errorf("%s: run identity %+v, want the whole spec", m, runIdentity(c))
		}
	}
}

// TestGroupRunsPerPass checks how a pass groups its misses: at ci,
// table3's 72 cells perform 57 runs on 3 (dataset, seed) pairs and
// table4's 16 cells 14 runs on 2, a grid without SingleSet performs one
// run per cell, and seed replicates and shard slices group only within
// themselves. A cold table3 pass still misses and writes all 72 cells,
// each group's records carry one payload, and the warm pass hits all 72.
func TestGroupRunsPerPass(t *testing.T) {
	s := CI()
	check := func(name string, jobs []CellSpec, runs, pairs int) {
		t.Helper()
		groups := groupRuns(jobs)
		seen := make([]bool, len(jobs))
		for _, g := range groups {
			for _, i := range g {
				if seen[i] {
					t.Fatalf("%s: job %d in two groups", name, i)
				}
				seen[i] = true
				if runIdentity(jobs[i]) != runIdentity(jobs[g[0]]) {
					t.Fatalf("%s: job %s grouped with %s", name, jobs[i].Key(), jobs[g[0]].Key())
				}
			}
		}
		for i, ok := range seen {
			if !ok {
				t.Fatalf("%s: job %s in no group", name, jobs[i].Key())
			}
		}
		if len(groups) != runs {
			t.Errorf("%s: %d jobs grouped into %d runs, want %d", name, len(jobs), len(groups), runs)
		}
		var data sharedData
		for _, j := range jobs {
			spec, err := s.datasetByName(j.Dataset)
			if err != nil {
				t.Fatal(err)
			}
			data.synthesize(spec, j.Seed)
		}
		if got := len(data.pairs); got != pairs {
			t.Errorf("%s: %d (dataset, seed) pairs, want %d", name, got, pairs)
		}
	}
	table3 := table3Jobs(s, 1)
	check("table3", table3, 57, 3)
	check("table4", table4Jobs(s, 1), 14, 2)
	check("table3 -seeds 2", replicateJobs(table3, 2), 114, 6)
	// Shard 1/2 holds every SingleSet and FedProx cell, shard 2/2 every
	// FedAvg and FedDRL cell.
	for i, runs := range []int{21, 36} {
		slice, err := ShardJobs(table3, i+1, 2)
		if err != nil {
			t.Fatal(err)
		}
		check("table3 -shard", slice, runs, 3)
	}
	for _, id := range []string{"figure5", "figure6", "figure7", "figure8", "figure10", "headline", "async-sync", "byzantine"} {
		jobs := Registry[id].Jobs(s, 1)
		pairs := map[dataKey]bool{}
		for _, j := range jobs {
			pairs[dataKey{j.Dataset, j.Seed}] = true
		}
		check(id, jobs, len(jobs), len(pairs))
	}

	g := gridScale()
	g.Workers = 2
	dir := t.TempDir()
	cold, err := OpenCache(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	set := NewArtifactSet("table3", g, 1, 1)
	set.compute(g, table3Jobs(g, 1), cold)
	if st := cold.Stats(); st.Hits != 0 || st.Misses != 72 || st.Writes != 72 || st.WriteErrs != 0 {
		t.Fatalf("cold table3 pass: %+v, want 72 misses and 72 writes", st)
	}
	if n := len(cellFiles(t, dir)); n != 72 {
		t.Fatalf("cold table3 pass wrote %d records, want 72", n)
	}
	jobs := table3Jobs(g, 1)
	for _, grp := range groupRuns(jobs) {
		for _, i := range grp {
			ck, err := serialize.LoadFile(cold.path(cellAddress(hashedScale(g), jobs[i].Key())))
			if err != nil {
				t.Fatal(err)
			}
			if want := seriesSum(set.get(jobs[grp[0]])); ck.Meta["payload"] != want {
				t.Fatalf("%s: record payload %s, want its run's %s", jobs[i].Key(), ck.Meta["payload"], want)
			}
		}
	}
	warm, err := OpenCache(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	NewArtifactSet("table3", g, 1, 1).compute(g, jobs, warm)
	if st := warm.Stats(); st.Hits != 72 || st.Misses != 0 || st.Writes != 0 {
		t.Fatalf("warm table3 pass: %+v, want 72 hits", st)
	}
}

// pairSum hashes a (dataset, seed) pair's features and labels bit for
// bit.
func pairSum(train, test *dataset.Dataset) string {
	h := serialize.NewHasher()
	for _, d := range []*dataset.Dataset{train, test} {
		h.Floats(d.X)
		h.Floats(intsToFloats(d.Y))
	}
	return h.Sum()
}

// TestSharedPairsStayUnchanged trains a cell of every method on one
// shared (dataset, seed) pair, concurrently on one pool, and requires
// the pair to hash the same afterwards as a fresh synthesis: the
// sharing is sound only if no run writes into its data, and the pair
// must be what a cell would synthesize alone. A FedAvg and a
// FedDRL cell under the label-flip attack, which poisons its clients'
// labels through a view, ride along.
func TestSharedPairsStayUnchanged(t *testing.T) {
	s := gridScale()
	s.Workers = 4
	var cells []CellSpec
	for _, m := range append(append([]string{}, Methods...), "FedAvg+async", "FedProx+stale", "FedDRL+stale") {
		cells = append(cells, table3Spec(s, "fashion-sim", "CE", m, s.SmallN, 7))
	}
	for _, m := range []string{"FedAvg", "FedDRL"} {
		c := table3Spec(s, "fashion-sim", "CE", m, s.LargeN, 7)
		c.Attack, c.AttackFrac, c.Merger = "labelflip", 0.4, "median"
		cells = append(cells, c)
	}
	pool := s.newPool()
	defer pool.Close()
	var data sharedData
	errs := make([]error, len(cells))
	pool.For(len(cells), func(i int) {
		_, errs[i] = runCell(s, cells[i], data.synthesize, pool, nil)
	})
	for i, err := range errs {
		if err != nil {
			t.Fatalf("%s: %v", cells[i].Key(), err)
		}
	}
	if len(data.pairs) != 1 {
		t.Fatalf("%d pairs, want 1", len(data.pairs))
	}
	spec, err := s.datasetByName("fashion-sim")
	if err != nil {
		t.Fatal(err)
	}
	want := pairSum(dataset.Synthesize(spec, 7))
	p := data.pairs[dataKey{"fashion-sim", 7}]
	if got := pairSum(p.train, p.test); got != want {
		t.Fatalf("shared pair hashes %s after training, a fresh synthesis %s", got, want)
	}
}
