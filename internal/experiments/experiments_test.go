package experiments

import (
	"math"
	"strings"
	"testing"

	"feddrl/internal/dataset"
	"feddrl/internal/rng"
)

// microScale is an even smaller configuration than CI for unit tests.
func microScale() Scale {
	s := CI()
	s.Name = "micro"
	s.DataScale = 0.06
	s.Rounds = 4
	s.SmallN = 6
	s.LargeN = 8
	s.K = 4
	s.Epochs = 1
	s.KSweep = []int{2, 4}
	s.Deltas = []float64{0.3, 0.6}
	return s
}

func TestScaleByName(t *testing.T) {
	for _, name := range []string{"ci", "medium", "paper"} {
		s, err := ScaleByName(name)
		if err != nil || s.Name != name {
			t.Fatalf("ScaleByName(%q) = %+v, %v", name, s, err)
		}
	}
	if _, err := ScaleByName("bogus"); err == nil {
		t.Fatal("unknown scale did not error")
	}
}

func TestScalesAreConsistent(t *testing.T) {
	for _, s := range []Scale{CI(), Medium(), Paper()} {
		if s.Rounds <= 0 || s.SmallN <= 0 || s.LargeN < s.SmallN || s.K <= 0 {
			t.Fatalf("scale %q inconsistent: %+v", s.Name, s)
		}
		if len(s.KSweep) == 0 || len(s.Deltas) == 0 {
			t.Fatalf("scale %q missing sweeps", s.Name)
		}
		if len(s.datasets()) != 3 {
			t.Fatalf("scale %q dataset count", s.Name)
		}
		if err := s.Check(); err != nil {
			t.Fatalf("scale %q: %v", s.Name, err)
		}
	}
}

// TestRunCellErrors: RunCell returns an error, before anything trains,
// for a scale that fails Check or a cell no run can be built from.
func TestRunCellErrors(t *testing.T) {
	s := microScale()
	good := table3Spec(s, "mnist-sim", "CE", "FedDRL+stale", s.LargeN, 1)
	for name, mut := range map[string]func(*Scale, *CellSpec){
		"dataset":         func(_ *Scale, c *CellSpec) { c.Dataset = "mnist" },
		"method":          func(_ *Scale, c *CellSpec) { c.Method = "FedSGD" },
		"mode":            func(_ *Scale, c *CellSpec) { c.Method = "FedDRL+late" },
		"SingleSet mode":  func(_ *Scale, c *CellSpec) { c.Method = "SingleSet+async" },
		"N":               func(_ *Scale, c *CellSpec) { c.N = 0 },
		"K":               func(_ *Scale, c *CellSpec) { c.K = 0 },
		"attack":          func(_ *Scale, c *CellSpec) { c.Attack, c.AttackFrac = "signflip", math.NaN() },
		"merger":          func(_ *Scale, c *CellSpec) { c.Merger = "mean" },
		"partition":       func(_ *Scale, c *CellSpec) { c.Partition = "XX" },
		"delta":           func(_ *Scale, c *CellSpec) { c.Delta = 1 },
		"rounds":          func(s *Scale, _ *CellSpec) { s.Rounds = -1 },
		"datascale":       func(s *Scale, _ *CellSpec) { s.DataScale = math.Inf(1) },
		"datascale range": func(s *Scale, _ *CellSpec) { s.DataScale = 1e300 },
		"lr":              func(s *Scale, _ *CellSpec) { s.LR = math.NaN() },
		"explore":         func(s *Scale, _ *CellSpec) { s.DRLExploreStd = math.NaN() },
		"precision":       func(s *Scale, _ *CellSpec) { s.Precision = "f16" },
		"scale attack":    func(s *Scale, _ *CellSpec) { s.Attack = "bogus" },
		"scale merger":    func(s *Scale, _ *CellSpec) { s.Merger = "bogus" },
	} {
		bs, bc := s, good
		mut(&bs, &bc)
		if res, err := RunCell(bs, bc); err == nil || res != nil {
			t.Errorf("%s: RunCell returned %v, %v; want only an error", name, res, err)
		}
	}
	if _, err := RunCell(s, good); err != nil {
		t.Fatal(err)
	}
}

// TestLabelsPerClient: the grid's PA partition gives every client 20
// labels on the 100-class dataset and 2 on a 10-class one (§4.1.1).
func TestLabelsPerClient(t *testing.T) {
	s := CI()
	ds := s.datasets()
	for _, c := range []struct {
		spec dataset.Spec
		want int
	}{{ds[0], 20}, {ds[2], 2}} { // cifar100-sim, mnist-sim
		train, _ := dataset.Synthesize(c.spec, 1)
		a := buildPartition("PA", train, s.SmallN, defaultDelta, rng.New(2))
		for k, idx := range a.ClientIndices {
			labels := map[int]bool{}
			for _, i := range idx {
				labels[train.Label(i)] = true
			}
			if len(labels) != c.want {
				t.Fatalf("%s client %d holds %d labels, want %d", c.spec.Name, k, len(labels), c.want)
			}
		}
	}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"table2", "table3", "table4",
		"figure4", "figure5", "figure6", "figure7", "figure8", "figure9", "figure10",
		"ablation-reward", "ablation-statenorm", "ablation-twostage",
		"ablation-prior", "comm-overhead", "headline", "async-sync",
		"byzantine",
	}
	for _, n := range want {
		if _, ok := Registry[n]; !ok {
			t.Fatalf("experiment %q missing from registry", n)
		}
	}
	if len(Names()) != len(want) {
		t.Fatalf("registry has %d entries, want %d", len(Names()), len(want))
	}
	if _, err := RunCached("nope", microScale(), 1, nil); err == nil {
		t.Fatal("unknown experiment did not error")
	}
}

func TestTable2Output(t *testing.T) {
	out := Table2(microScale(), 1)
	for _, want := range []string{"PA", "CE", "CN", "ClusterSkew"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table2 missing %q:\n%s", want, out)
		}
	}
	// CE row must flag cluster skew.
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "CE") && !strings.Contains(line, "yes") {
			t.Fatalf("CE row does not flag cluster skew: %s", line)
		}
	}
}

func TestFigure4Output(t *testing.T) {
	out := Figure4(microScale(), 1)
	if strings.Count(out, "partition,") != 3 {
		t.Fatalf("Figure4 should render 3 partitions:\n%s", out)
	}
}

func TestTable3Micro(t *testing.T) {
	s := microScale()
	set := NewArtifactSet("table3", s, 3, 1)
	jobs := table3Jobs(s, 3)
	// 3 datasets × 2 sizes × 3 partitions cells, four methods each.
	if len(jobs) != 18*len(Methods) {
		t.Fatalf("Table3 jobs = %d, want %d", len(jobs), 18*len(Methods))
	}
	set.compute(s, jobs, nil)
	for _, c := range jobs {
		if acc := set.get(c).Best(); acc < 0 || acc > 100 {
			t.Fatalf("cell %s/%s/%d method %s acc %v out of range", c.Dataset, c.Partition, c.N, c.Method, acc)
		}
	}
	out := renderTable3(s, 3, 1, set.get)
	for _, want := range []string{"cifar100-sim", "fashion-sim", "mnist-sim", "impr.(a)", "impr.(b)", "FedDRL"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table3 render missing %q", want)
		}
	}
}

// runMicro runs a registered experiment at microScale.
func runMicro(t *testing.T, id string, seed uint64) string {
	t.Helper()
	out, err := RunCached(id, microScale(), seed, nil)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestFigure5Micro(t *testing.T) {
	out := runMicro(t, "figure5", 5)
	if !strings.Contains(out, "fashion-sim / CE") || !strings.Contains(out, "round") {
		t.Fatalf("Figure5 output malformed:\n%s", out)
	}
	if strings.Contains(out, "mnist-sim") {
		t.Fatal("Figure5 should omit mnist-sim like the paper")
	}
}

func TestFigure6Micro(t *testing.T) {
	out := runMicro(t, "figure6", 7)
	if !strings.Contains(out, "normalized to FedDRL") {
		t.Fatalf("Figure6 header missing:\n%s", out)
	}
	// FedDRL's own normalized row must be 1.00 everywhere.
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "FedDRL") {
			for _, cell := range strings.Fields(line)[1:] {
				if cell != "1.00" {
					t.Fatalf("FedDRL normalized cell %q != 1.00", cell)
				}
			}
		}
	}
}

func TestFigure7And8Micro(t *testing.T) {
	out7 := runMicro(t, "figure7", 9)
	if !strings.Contains(out7, "K") || !strings.Contains(out7, "FedDRL") {
		t.Fatalf("Figure7 malformed:\n%s", out7)
	}
	if got := strings.Count(out7, "\n"); got < 4 {
		t.Fatalf("Figure7 too short:\n%s", out7)
	}
	out8 := runMicro(t, "figure8", 11)
	if !strings.Contains(out8, "delta") || !strings.Contains(out8, "0.6") {
		t.Fatalf("Figure8 malformed:\n%s", out8)
	}
}

func TestFigure9Micro(t *testing.T) {
	out := Figure9(microScale(), 13)
	if !strings.Contains(out, "SimpleCNN") || !strings.Contains(out, "VGGMini") {
		t.Fatalf("Figure9 missing models:\n%s", out)
	}
	if !strings.Contains(out, "DRL decision") || !strings.Contains(out, "aggregation") {
		t.Fatalf("Figure9 missing columns:\n%s", out)
	}
}

func TestFigure10Micro(t *testing.T) {
	out := runMicro(t, "figure10", 15)
	if !strings.Contains(out, "target") || !strings.Contains(out, "mnist-sim") {
		t.Fatalf("Figure10 malformed:\n%s", out)
	}
}

func TestTable4Micro(t *testing.T) {
	out := runMicro(t, "table4", 17)
	if !strings.Contains(out, "Equal") || !strings.Contains(out, "Non-equal") {
		t.Fatalf("Table4 malformed:\n%s", out)
	}
	if !strings.Contains(out, "SingleSet") {
		t.Fatal("Table4 missing SingleSet reference")
	}
}

// TestAblationsMicro also checks that the scale-wide attack knobs, which
// apply to grid cells, leave the ablations' benign federation alone.
func TestAblationsMicro(t *testing.T) {
	s := microScale()
	attacked := s
	attacked.Attack, attacked.AttackFrac, attacked.Merger = "signflip", 0.4, "median"
	for name, fn := range map[string]Runner{
		"reward":    AblationRewardGap,
		"statenorm": AblationStateNorm,
	} {
		out := fn(s, 19)
		if !strings.Contains(out, "Ablation") {
			t.Fatalf("%s ablation malformed:\n%s", name, out)
		}
		if got := fn(attacked, 19); got != out {
			t.Fatalf("%s ablation changed under a scale-wide attack:\n%s\nvs benign\n%s", name, got, out)
		}
	}
}

func TestAblationTwoStageMicro(t *testing.T) {
	if testing.Short() {
		t.Skip("two-stage ablation is the slowest experiment")
	}
	out := AblationTwoStage(microScale(), 21)
	if !strings.Contains(out, "two-stage pre-trained") || !strings.Contains(out, "cold start") {
		t.Fatalf("two-stage ablation malformed:\n%s", out)
	}
}

func TestFLEnvContract(t *testing.T) {
	s := microScale()
	spec := s.datasets()[2] // mnist-sim
	drlCfg := s.drlConfig(4, 23)
	env := newFLEnv(s, spec, drlCfg, 23, 2)
	st := env.Reset()
	if len(st) != drlCfg.StateDim() {
		t.Fatalf("env state dim %d, want %d", len(st), drlCfg.StateDim())
	}
	action := make([]float64, drlCfg.ActionDim())
	st2, r, done := env.Step(action)
	if len(st2) != drlCfg.StateDim() {
		t.Fatal("env next-state dim wrong")
	}
	if r >= 0 {
		t.Fatalf("Eq. 7 reward should be negative for positive losses, got %v", r)
	}
	if done {
		t.Fatal("episode ended after one of two rounds")
	}
	_, _, done = env.Step(action)
	if !done {
		t.Fatal("episode did not end after the configured rounds")
	}
}

// TestArtifactStoreHits: computing into a set runs each distinct cell
// once, keeps the cells it already holds, and its getter panics on a
// cell no job list enumerated.
func TestArtifactStoreHits(t *testing.T) {
	s := microScale()
	set := NewArtifactSet("table3", s, 25, 1)
	ds := s.datasets()[2]
	ce := table3Spec(s, ds.Name, "CE", "FedAvg", s.SmallN, 25)
	cn := table3Spec(s, ds.Name, "CN", "FedAvg", s.SmallN, 25)
	set.compute(s, []CellSpec{ce, ce}, nil)
	if set.Len() != 1 {
		t.Fatalf("set holds %d cells after one distinct job, want 1", set.Len())
	}
	r1 := set.get(ce)
	set.compute(s, []CellSpec{ce, cn}, nil)
	if set.get(ce) != r1 {
		t.Fatal("set did not reuse the run")
	}
	if set.get(cn) == r1 || set.Len() != 2 {
		t.Fatal("set conflated distinct cells")
	}
	// A cell no job list enumerated is a renderer bug: get panics,
	// naming it.
	pa := table3Spec(s, ds.Name, "PA", "FedAvg", s.SmallN, 25)
	defer func() {
		if msg, ok := recover().(string); !ok || !strings.Contains(msg, pa.Key()) {
			t.Fatalf("get of an uncomputed cell: panic %q, want one naming %s", msg, pa.Key())
		}
	}()
	set.get(pa)
}
