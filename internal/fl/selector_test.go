package fl

import (
	"reflect"
	"strings"
	"testing"

	"feddrl/internal/partition"
	"feddrl/internal/rng"
)

func buildEligible(t *testing.T, sizes []int) []*Client {
	t.Helper()
	tr, _ := tinyData(t, 61)
	f := tinyFactory(tr.Dim, tr.NumClasses)
	clients := make([]*Client, len(sizes))
	pos := 0
	for i, n := range sizes {
		idx := make([]int, 0, n)
		for j := 0; j < n && pos < tr.N; j++ {
			idx = append(idx, pos)
			pos++
		}
		clients[i] = NewClient(i, tr.Subset(idx), f, uint64(70+i))
	}
	return clients
}

func assertDistinct(t *testing.T, sel []int, k, n int) {
	t.Helper()
	if len(sel) != k {
		t.Fatalf("selected %d, want %d", len(sel), k)
	}
	seen := map[int]bool{}
	for _, i := range sel {
		if i < 0 || i >= n || seen[i] {
			t.Fatalf("invalid or duplicate selection %v", sel)
		}
		seen[i] = true
	}
}

func TestUniformSelector(t *testing.T) {
	clients := buildEligible(t, []int{5, 5, 5, 5, 5, 5})
	r := rng.New(1)
	sel := (UniformSelector{}).Select(0, 3, &eagerClients{clients: clients}, r)
	assertDistinct(t, sel, 3, 6)
}

func TestSelectorNames(t *testing.T) {
	if name := (UniformSelector{}).Name(); name != "uniform" {
		t.Fatalf("selector name %q, want %q", name, "uniform")
	}
}

func TestRunWithCustomSelector(t *testing.T) {
	tr, te := tinyData(t, 62)
	a := partition.Pareto(tr, 6, 2, 1.2, rng.New(63))
	cfg := runConfig(tr, 4, 3)
	cfg.Selector = shortSelector{}
	res := Run(cfg, BuildClients(tr, a.ClientIndices, cfg.Factory, cfg.Seed), te, FedAvg{})
	if len(res.Rounds) != 4 {
		t.Fatal("run with selector failed")
	}
}

// shortSelector returns K uniform indices in round 0 and K−1 after: a
// legal short cohort.
type shortSelector struct{}

func (shortSelector) Name() string { return "short" }
func (shortSelector) Select(round, k int, pop Population, r *rng.RNG) []int {
	out := UniformSelector{}.Select(round, k, pop, r)
	if round > 0 {
		out = out[:k-1]
	}
	return out
}

// longSelector returns one index more than asked for.
type longSelector struct{}

func (longSelector) Name() string { return "long" }
func (longSelector) Select(round, k int, pop Population, r *rng.RNG) []int {
	return seqIndices(k + 1)
}

// TestSelectorCohortSize: a Selector that returns fewer than K clients
// gets exactly those trained, screened, merged and counted — RunVirtual
// matches degenerate RunAsync and no earlier round's update is merged
// again — while one that returns more than K is a contract violation
// that panics naming the selector.
func TestSelectorCohortSize(t *testing.T) {
	const seed = 67
	cp, test, cfg := detVirtualFederation(t, seed)
	cfg.Selector = shortSelector{}
	want := stripTimings(RunVirtual(cfg, cp, test, FedAvg{}))
	cp, test, _ = detVirtualFederation(t, seed)
	got := stripAsyncTimings(mustAsync(RunAsync(AsyncConfig{RunConfig: cfg}, cp, test, FedAvg{})))
	if !reflect.DeepEqual(want, got.Result) {
		t.Fatal("short-cohort RunVirtual differs from degenerate RunAsync")
	}
	for _, m := range got.Async {
		if wantN := cfg.K - min(m.Round, 1); m.Arrived != wantN {
			t.Fatalf("round %d folded %d updates, want %d", m.Round, m.Arrived, wantN)
		}
	}

	clients, test, cfg := detFederation(t, seed)
	cfg.Selector = longSelector{}
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, `selector "long"`) {
			t.Fatalf("over-long selection panicked with %q, want a message naming the selector", msg)
		}
	}()
	Run(cfg, clients, test, FedAvg{})
}
