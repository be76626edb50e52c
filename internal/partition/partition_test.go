package partition

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"feddrl/internal/dataset"
	"feddrl/internal/rng"
)

func tenClassData(t testing.TB, seed uint64) *dataset.Dataset {
	t.Helper()
	tr, _ := dataset.Synthesize(dataset.MNISTSim().Scaled(0.5), seed)
	return tr
}

func hundredClassData(t testing.TB, seed uint64) *dataset.Dataset {
	t.Helper()
	tr, _ := dataset.Synthesize(dataset.CIFAR100Sim().Scaled(0.5), seed)
	return tr
}

// assertDisjoint fails if any sample is assigned to two clients.
func assertDisjoint(t *testing.T, d *dataset.Dataset, a *Assignment) {
	t.Helper()
	s := ComputeStats(d, a)
	if !s.Disjoint {
		t.Fatalf("%s assignment is not disjoint", a.Method)
	}
}

func TestParetoFullCoverage(t *testing.T) {
	d := tenClassData(t, 1)
	a := Pareto(d, 10, 2, 1.5, rng.New(2))
	assertDisjoint(t, d, a)
	s := ComputeStats(d, a)
	if s.Coverage != 1 {
		t.Fatalf("PA coverage = %v, want 1", s.Coverage)
	}
}

func TestParetoLabelCount(t *testing.T) {
	d := tenClassData(t, 3)
	a := Pareto(d, 10, 2, 1.5, rng.New(4))
	s := ComputeStats(d, a)
	for k, held := range s.LabelsHeld {
		if held > 2 || held < 1 {
			t.Fatalf("PA client %d holds %d labels, want 1-2", k, held)
		}
	}
}

func TestParetoQuantitySkew(t *testing.T) {
	d := tenClassData(t, 5)
	a := Pareto(d, 10, 2, 2.0, rng.New(6))
	s := ComputeStats(d, a)
	if s.QuantityCV < 0.10 {
		t.Fatalf("PA with alpha=2 should show quantity imbalance, CV = %v", s.QuantityCV)
	}
}

func TestParetoCharacteristicsMatchTable2(t *testing.T) {
	d := tenClassData(t, 7)
	a := Pareto(d, 10, 2, 2.0, rng.New(8))
	ch := ComputeStats(d, a).Characteristics(d.NumClasses)
	if ch.ClusterSkew {
		t.Fatal("PA should not show cluster skew")
	}
	if !ch.LabelSizeImbalance || !ch.QuantityImbalance {
		t.Fatalf("PA should show label-size and quantity imbalance: %+v", ch)
	}
}

func TestClusteredEqualProperties(t *testing.T) {
	d := tenClassData(t, 9)
	a := ClusteredEqual(d, 10, 0.6, 2, 3, rng.New(10))
	assertDisjoint(t, d, a)
	s := ComputeStats(d, a)
	// Equal quantities: CV near zero.
	if s.QuantityCV > 0.05 {
		t.Fatalf("CE quantity CV = %v, want ~0", s.QuantityCV)
	}
	// Every client holds exactly 2 labels.
	for k, held := range s.LabelsHeld {
		if held != 2 {
			t.Fatalf("CE client %d holds %d labels", k, held)
		}
	}
	// Main group has δ·N clients.
	mainCount := 0
	for _, g := range a.Clusters {
		if g == 0 {
			mainCount++
		}
	}
	if mainCount != 6 {
		t.Fatalf("CE main group size = %d, want 6", mainCount)
	}
}

func TestClusteredEqualCharacteristics(t *testing.T) {
	d := tenClassData(t, 11)
	a := ClusteredEqual(d, 10, 0.6, 2, 3, rng.New(12))
	ch := ComputeStats(d, a).Characteristics(d.NumClasses)
	if !ch.ClusterSkew || !ch.LabelSizeImbalance {
		t.Fatalf("CE should show cluster skew + label-size imbalance: %+v", ch)
	}
	if ch.QuantityImbalance {
		t.Fatalf("CE should NOT show quantity imbalance: %+v", ch)
	}
}

func TestClusteredNonEqualCharacteristics(t *testing.T) {
	d := tenClassData(t, 13)
	a := ClusteredNonEqual(d, 10, 0.6, 2, 3, 1.2, rng.New(14))
	assertDisjoint(t, d, a)
	ch := ComputeStats(d, a).Characteristics(d.NumClasses)
	if !ch.ClusterSkew || !ch.LabelSizeImbalance || !ch.QuantityImbalance {
		t.Fatalf("CN should show all three imbalances: %+v", ch)
	}
}

func TestClusterLabelsComeFromOwnBlock(t *testing.T) {
	d := tenClassData(t, 15)
	a := ClusteredEqual(d, 12, 0.5, 2, 3, rng.New(16))
	s := ComputeStats(d, a)
	// Clients in the same group must draw labels from the same block:
	// the union of labels held by a group must be disjoint from other
	// groups' unions.
	groupLabels := make([]map[int]bool, 3)
	for g := range groupLabels {
		groupLabels[g] = map[int]bool{}
	}
	for k := range a.ClientIndices {
		for c, n := range s.LabelMatrix[k] {
			if n > 0 {
				groupLabels[a.Clusters[k]][c] = true
			}
		}
	}
	for g1 := 0; g1 < 3; g1++ {
		for g2 := g1 + 1; g2 < 3; g2++ {
			for c := range groupLabels[g1] {
				if groupLabels[g2][c] {
					t.Fatalf("label %d appears in groups %d and %d", c, g1, g2)
				}
			}
		}
	}
}

func TestDeltaControlsMainGroupSize(t *testing.T) {
	d := tenClassData(t, 17)
	for _, tc := range []struct {
		delta float64
		want  int
	}{{0.2, 4}, {0.4, 8}, {0.6, 12}} {
		a := ClusteredEqual(d, 20, tc.delta, 2, 3, rng.New(18))
		got := 0
		for _, g := range a.Clusters {
			if g == 0 {
				got++
			}
		}
		if got != tc.want {
			t.Fatalf("delta %v: main group %d, want %d", tc.delta, got, tc.want)
		}
	}
}

func TestEqualShards(t *testing.T) {
	d := tenClassData(t, 19)
	a := EqualShards(d, 10, 2, rng.New(20))
	assertDisjoint(t, d, a)
	s := ComputeStats(d, a)
	if s.Coverage != 1 {
		t.Fatalf("Equal coverage = %v", s.Coverage)
	}
	// Near-equal quantities (shards may differ by 1 sample).
	min, max := s.Counts[0], s.Counts[0]
	for _, c := range s.Counts {
		if c < min {
			min = c
		}
		if c > max {
			max = c
		}
	}
	if max-min > 2 {
		t.Fatalf("Equal shards count spread %d-%d", min, max)
	}
	// Label-size imbalance: clients should hold only a few labels.
	if s.MeanLabels > 5 {
		t.Fatalf("Equal shards mean labels %v, expected few", s.MeanLabels)
	}
}

func TestNonEqualShards(t *testing.T) {
	d := hundredClassData(t, 21)
	a := NonEqualShards(d, 10, 10, 6, 14, rng.New(22))
	assertDisjoint(t, d, a)
	s := ComputeStats(d, a)
	if s.Coverage != 1 {
		t.Fatalf("Non-equal coverage = %v", s.Coverage)
	}
	if !s.Characteristics(d.NumClasses).QuantityImbalance {
		t.Fatalf("Non-equal shards should show quantity imbalance, CV = %v", s.QuantityCV)
	}
}

func TestNonEqualShardBoundsRespected(t *testing.T) {
	d := tenClassData(t, 23)
	a := NonEqualShards(d, 10, 10, 6, 14, rng.New(24))
	total := 0
	for k, idxs := range a.ClientIndices {
		if len(idxs) == 0 {
			t.Fatalf("client %d received nothing", k)
		}
		total += len(idxs)
	}
	if total != d.N {
		t.Fatalf("assigned %d of %d samples", total, d.N)
	}
}

func TestPartitionDisjointnessProperty(t *testing.T) {
	// Property: for arbitrary seeds and client counts, every partitioner
	// yields pairwise-disjoint client index sets with valid indices.
	d := tenClassData(t, 25)
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw)%17 + 3 // 3..19 clients
		r := rng.New(seed)
		as := []*Assignment{
			Pareto(d, n, 2, 1.5, r),
			ClusteredEqual(d, n, 0.5, 2, 3, r),
			ClusteredNonEqual(d, n, 0.5, 2, 3, 1.0, r),
			EqualShards(d, n, 2, r),
			NonEqualShards(d, n, 10, 6, 14, r),
		}
		for _, a := range as {
			if a.NumClients() != n {
				return false
			}
			seen := map[int]bool{}
			for _, idxs := range a.ClientIndices {
				for _, i := range idxs {
					if i < 0 || i >= d.N || seen[i] {
						return false
					}
					seen[i] = true
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestCIFAR100StylePartition(t *testing.T) {
	d := hundredClassData(t, 27)
	// 20 labels per client as in the paper's CIFAR-100 PA setting.
	a := Pareto(d, 10, 20, 1.5, rng.New(28))
	assertDisjoint(t, d, a)
	s := ComputeStats(d, a)
	for k, held := range s.LabelsHeld {
		if held > 20 {
			t.Fatalf("client %d holds %d labels, want <= 20", k, held)
		}
	}
	if s.Coverage != 1 {
		t.Fatalf("coverage %v", s.Coverage)
	}
}

func TestHundredClients(t *testing.T) {
	d := tenClassData(t, 29)
	for _, build := range []func() *Assignment{
		func() *Assignment { return Pareto(d, 100, 2, 1.5, rng.New(30)) },
		func() *Assignment { return ClusteredEqual(d, 100, 0.6, 2, 3, rng.New(31)) },
		func() *Assignment { return ClusteredNonEqual(d, 100, 0.6, 2, 3, 1.0, rng.New(32)) },
	} {
		a := build()
		assertDisjoint(t, d, a)
		empty := 0
		for _, idxs := range a.ClientIndices {
			if len(idxs) == 0 {
				empty++
			}
		}
		// With 600 samples over 100 clients some starvation is possible
		// for CN but must stay rare.
		if empty > 5 {
			t.Fatalf("%s: %d of 100 clients empty", a.Method, empty)
		}
	}
}

func TestPanics(t *testing.T) {
	d := tenClassData(t, 33)
	cases := []func(){
		func() { Pareto(d, 0, 2, 1, rng.New(1)) },
		func() { Pareto(d, 5, 11, 1, rng.New(1)) },
		func() { ClusteredEqual(d, 10, 0, 2, 3, rng.New(1)) },
		func() { ClusteredEqual(d, 10, 1.5, 2, 3, rng.New(1)) },
		func() { ClusteredEqual(d, 10, math.NaN(), 2, 3, rng.New(1)) },
		func() { ClusteredEqual(d, 2, 0.5, 2, 3, rng.New(1)) },
		func() { ClusteredEqual(d, 10, 0.5, 4, 3, rng.New(1)) }, // 3*4 > 10 classes
		func() { EqualShards(d, 0, 2, rng.New(1)) },
		func() { NonEqualShards(d, 10, 10, 14, 6, rng.New(1)) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d did not panic", i)
				}
			}()
			f()
		}()
	}
}

// TestByName: each name builds exactly what its constructor builds with
// the paper's constants, and a bad name, client count or delta returns
// an error without drawing from the generator.
func TestByName(t *testing.T) {
	for _, d := range []*dataset.Dataset{tenClassData(t, 37), hundredClassData(t, 37)} {
		labels := 2
		if d.NumClasses >= 100 {
			labels = 20
		}
		want := map[string]func(r *rng.RNG) *Assignment{
			"PA":        func(r *rng.RNG) *Assignment { return Pareto(d, 9, labels, 1.5, r) },
			"CE":        func(r *rng.RNG) *Assignment { return ClusteredEqual(d, 9, 0.4, labels, 3, r) },
			"CN":        func(r *rng.RNG) *Assignment { return ClusteredNonEqual(d, 9, 0.4, labels, 3, 1, r) },
			"Equal":     func(r *rng.RNG) *Assignment { return EqualShards(d, 9, 2, r) },
			"Non-equal": func(r *rng.RNG) *Assignment { return NonEqualShards(d, 9, 10, 6, 14, r) },
		}
		for name, build := range want {
			got, err := ByName(name, d, 9, 0.4, rng.New(38))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !reflect.DeepEqual(got, build(rng.New(38))) {
				t.Fatalf("%s over %d classes differs from its constructor", name, d.NumClasses)
			}
		}
	}
	d := tenClassData(t, 39)
	for _, c := range []struct {
		name    string
		clients int
		delta   float64
	}{
		{"XX", 5, 0.5},
		{"PA", 0, 0.5},
		{"Equal", -1, 0.5},
		{"CE", 2, 0.5},
		{"CN", 10, 0},
		{"CE", 10, 1},
		{"CN", 10, 1.5},
		{"CE", 10, math.NaN()},
	} {
		r := rng.New(40)
		if a, err := ByName(c.name, d, c.clients, c.delta, r); err == nil || a != nil {
			t.Fatalf("ByName(%q, %d clients, delta %v) = %v, %v; want an error", c.name, c.clients, c.delta, a, err)
		}
		if r.Uint64() != rng.New(40).Uint64() {
			t.Fatalf("ByName(%q, %d clients, delta %v) drew from the generator", c.name, c.clients, c.delta)
		}
	}
}

func TestASCIIRender(t *testing.T) {
	d := tenClassData(t, 35)
	a := ClusteredEqual(d, 10, 0.6, 2, 3, rng.New(36))
	out := ASCII(d, a)
	if !strings.Contains(out, "CE partition") {
		t.Fatalf("ASCII header missing:\n%s", out)
	}
	if !strings.Contains(out, "L0") || !strings.Contains(out, "L9") {
		t.Fatal("ASCII label rows missing")
	}
	if !strings.Contains(out, "groups:") {
		t.Fatal("ASCII group row missing for clustered method")
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 1+1+10+1 { // header + column header + 10 labels + groups
		t.Fatalf("ASCII has %d lines", len(lines))
	}
}

func TestStatsClusterScoreOrdering(t *testing.T) {
	// Cluster score must be clearly higher for CE than for PA.
	d := tenClassData(t, 37)
	ce := ComputeStats(d, ClusteredEqual(d, 12, 0.5, 2, 3, rng.New(38)))
	pa := ComputeStats(d, Pareto(d, 12, 2, 1.5, rng.New(39)))
	if ce.ClusterScore <= pa.ClusterScore {
		t.Fatalf("cluster score: CE %v <= PA %v", ce.ClusterScore, pa.ClusterScore)
	}
}
