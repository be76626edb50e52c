package partition

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"feddrl/internal/rng"
)

func TestDirichletCoversDataset(t *testing.T) {
	d := tenClassData(t, 51)
	a := Dirichlet(d, 10, 0.5, rng.New(52))
	assertDisjoint(t, d, a)
	s := ComputeStats(d, a)
	if s.Coverage != 1 {
		t.Fatalf("Dirichlet coverage %v", s.Coverage)
	}
}

func TestDirichletAlphaControlsSkew(t *testing.T) {
	d := tenClassData(t, 53)
	// Small alpha → strong label skew (fewer labels per client); large
	// alpha → near-IID (most labels everywhere).
	skewed := ComputeStats(d, Dirichlet(d, 10, 0.1, rng.New(54)))
	iid := ComputeStats(d, Dirichlet(d, 10, 100, rng.New(55)))
	if skewed.MeanLabels >= iid.MeanLabels {
		t.Fatalf("alpha ordering broken: skewed mean labels %v >= iid %v",
			skewed.MeanLabels, iid.MeanLabels)
	}
	if iid.MeanLabels < 9 {
		t.Fatalf("alpha=100 should be near-IID, mean labels %v", iid.MeanLabels)
	}
}

func TestDirichletDisjointProperty(t *testing.T) {
	d := tenClassData(t, 56)
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw)%15 + 2
		a := Dirichlet(d, n, 0.5, rng.New(seed))
		seen := map[int]bool{}
		total := 0
		for _, idxs := range a.ClientIndices {
			for _, i := range idxs {
				if i < 0 || i >= d.N || seen[i] {
					return false
				}
				seen[i] = true
				total++
			}
		}
		return total == d.N
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestDirichletPanics(t *testing.T) {
	d := tenClassData(t, 57)
	for i, f := range []func(){
		func() { Dirichlet(d, 0, 0.5, rng.New(1)) },
		func() { Dirichlet(d, 5, 0, rng.New(1)) },
		func() { Dirichlet(d, 5, math.NaN(), rng.New(1)) },
	} {
		func() {
			// The panic must be Dirichlet's own message, not a runtime
			// error from deeper in.
			defer func() {
				r := recover()
				if msg, ok := r.(string); !ok || !strings.HasPrefix(msg, "partition: Dirichlet") {
					t.Fatalf("case %d: panic %v, want Dirichlet's own", i, r)
				}
			}()
			f()
		}()
	}
}
