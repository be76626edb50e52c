package experiments

import (
	"strings"
	"testing"
)

// TestByzantineGrid renders the attack × merger grid at a miniature
// scale and checks its shape: one row per attack setting, one accuracy
// column per merge rule, and the benign baseline present.
func TestByzantineGrid(t *testing.T) {
	out, err := RunCached("byzantine", gridScale(), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"Byzantine robustness",
		"none", "signflip 20%", "signflip 40%", "gauss 20%", "replace 20%", "labelflip 20%",
		"weighted", "median", "trimmed", "krum",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("byzantine output missing %q:\n%s", want, out)
		}
	}
	if jobs := byzantineJobs(gridScale(), 1); len(jobs) != len(byzantineAttacks)*len(byzantineMergers) {
		t.Fatalf("byzantine grid has %d jobs, want %d", len(jobs), len(byzantineAttacks)*len(byzantineMergers))
	}
	for _, spec := range byzantineJobs(gridScale(), 1) {
		if spec.benign() {
			t.Fatalf("byzantine cell %+v spells no attack or merger", spec)
		}
		if _, err := ParseCellKey(spec.Key()); err != nil {
			t.Fatalf("byzantine cell key %q does not parse: %v", spec.Key(), err)
		}
	}
}

// TestScaleAttackAppliesToCells: the scale-level Byzantine knobs (the
// -attack/-merger CLI path) must reach cells whose specs leave their
// own attack fields zero — table3 output changes — while cell-level
// fields win over the scale's.
func TestScaleAttackAppliesToCells(t *testing.T) {
	s := gridScale()
	benign, err := RunCached("figure5", s, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	s.Attack, s.AttackFrac, s.Merger = "signflip", 0.4, ""
	attacked, err := RunCached("figure5", s, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if benign == attacked {
		t.Fatal("a scale-wide 40% sign-flip left figure5 unchanged")
	}
}

// TestBenignOutputsUnchangedByRefactor is the merge-seam compatibility
// gate: routing every benign cell through the Merger seam (and the
// quarantine gate) must leave a grid experiment's output untouched.
// Three faces of the same contract: a cold cached run and a warm rerun
// against the same directory render byte-identical text with zero warm
// misses (the cache addresses written under the zero-value Byzantine
// knobs stay valid), an explicit "weighted" merge rule renders the same
// bytes as the zero value, and the uncached zero-value run reproduces
// itself.
func TestBenignOutputsUnchangedByRefactor(t *testing.T) {
	s := gridScale()
	dir := t.TempDir()
	cache, err := OpenCache(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	want, err := RunCached("figure6", s, 1, cache)
	if err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Writes == 0 {
		t.Fatalf("cold run wrote no cells: %+v", st)
	}

	warm, err := OpenCache(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunCached("figure6", s, 1, warm)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatal("warm cached figure6 differs from the cold run")
	}
	if st := warm.Stats(); st.Misses != 0 || st.Hits == 0 {
		t.Fatalf("warm run missed the cache: %+v", st)
	}

	// The explicit default merge rule renders the same bytes as the
	// zero value (its cells hash to distinct addresses — the Scale knob
	// is conditionally hashed — so no cache is attached here).
	sw := s
	sw.Merger = "weighted"
	explicit, err := RunCached("figure6", sw, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if explicit != want {
		t.Fatal("explicit weighted merger changed figure6's rendered bytes")
	}

	// And an uncached re-run under the zero value still matches (cold
	// path equality, not just cache equality).
	again, err := RunCached("figure6", s, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if again != want {
		t.Fatal("figure6 is not reproducible under the zero-value config")
	}
}

// TestByzantineClaim checks the README's Byzantine claim at CI scale
// (seed 1) with margins: under a 20% sign-flip cohort, weighted
// averaging keeps under half of its benign best accuracy, while the
// coordinate median and the trimmed mean each keep over three quarters
// of theirs.
func TestByzantineClaim(t *testing.T) {
	s := CI()
	set := NewArtifactSet("byzantine", s, 1, 1)
	benign, attacked := byzantineAttacks[0], byzantineAttack{"signflip", 0.2}
	best := func(att byzantineAttack, merger string) float64 {
		return set.get(byzantineSpec(s, att, merger, 1)).Best()
	}
	var jobs []CellSpec
	for _, m := range []string{"weighted", "median", "trimmed"} {
		jobs = append(jobs, byzantineSpec(s, benign, m, 1), byzantineSpec(s, attacked, m, 1))
	}
	set.compute(s, jobs, nil)
	for _, c := range []struct {
		merger   string
		holds    bool    // the rule is claimed to hold under the attack
		fraction float64 // of the benign best: the bound the attacked best must clear
	}{
		{"weighted", false, 0.5},
		{"median", true, 0.75},
		{"trimmed", true, 0.75},
	} {
		b, a := best(benign, c.merger), best(attacked, c.merger)
		t.Logf("%s: benign %.2f, signflip 20%% %.2f", c.merger, b, a)
		if c.holds && a <= c.fraction*b {
			t.Errorf("%s does not hold under a 20%% sign-flip: %.2f is not over %.2f of its benign %.2f", c.merger, a, c.fraction, b)
		}
		if !c.holds && a >= c.fraction*b {
			t.Errorf("%s does not collapse under a 20%% sign-flip: %.2f is not under %.2f of its benign %.2f", c.merger, a, c.fraction, b)
		}
	}
}
