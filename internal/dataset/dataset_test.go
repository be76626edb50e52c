package dataset

import (
	"math"
	"testing"
	"testing/quick"

	"feddrl/internal/rng"
	"feddrl/internal/tensor"
)

func TestSynthesizeShapesAndDeterminism(t *testing.T) {
	spec := MNISTSim().Scaled(0.2)
	tr1, te1 := Synthesize(spec, 7)
	tr2, te2 := Synthesize(spec, 7)
	tr1.Validate()
	te1.Validate()
	if tr1.N != spec.TrainPerClass*spec.Classes || te1.N != spec.TestPerClass*spec.Classes {
		t.Fatalf("sizes: train %d test %d", tr1.N, te1.N)
	}
	for i := range tr1.X {
		if tr1.X[i] != tr2.X[i] {
			t.Fatal("train generation not deterministic")
		}
	}
	for i := range te1.Y {
		if te1.Y[i] != te2.Y[i] {
			t.Fatal("test generation not deterministic")
		}
	}
	tr3, _ := Synthesize(spec, 8)
	diff := false
	for i := range tr1.X {
		if tr1.X[i] != tr3.X[i] {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("different seeds produced identical data")
	}
}

func TestPixelRange(t *testing.T) {
	tr, te := Synthesize(FashionSim().Scaled(0.1), 1)
	for _, d := range []*Dataset{tr, te} {
		for _, v := range d.X {
			if v <= 0 || v >= 1 || math.IsNaN(v) {
				t.Fatalf("pixel %v outside (0,1)", v)
			}
		}
	}
}

func TestClassBalance(t *testing.T) {
	tr, _ := Synthesize(MNISTSim().Scaled(0.25), 2)
	byc := tr.ByClass()
	for c, idx := range byc {
		if len(idx) != len(byc[0]) {
			t.Fatalf("class %d has %d samples, class 0 has %d", c, len(idx), len(byc[0]))
		}
	}
}

func TestShuffled(t *testing.T) {
	tr, _ := Synthesize(MNISTSim().Scaled(0.25), 3)
	// The first 10 labels should not all be class 0 after shuffling.
	allSame := true
	for _, y := range tr.Y[:10] {
		if y != tr.Y[0] {
			allSame = false
			break
		}
	}
	if allSame {
		t.Fatal("dataset does not appear shuffled")
	}
}

func TestSubset(t *testing.T) {
	tr, _ := Synthesize(MNISTSim().Scaled(0.1), 4)
	idx := []int{5, 0, 7}
	sub := tr.Subset(idx)
	sub.Validate()
	if sub.N != 3 {
		t.Fatalf("subset N = %d", sub.N)
	}
	for j, i := range idx {
		if sub.Y[j] != tr.Y[i] {
			t.Fatal("subset labels wrong")
		}
		s, orig := sub.Sample(j), tr.Sample(i)
		for p := range s {
			if s[p] != orig[p] {
				t.Fatal("subset features wrong")
			}
		}
	}
	// Copies are independent.
	sub.X[0] = -99
	if tr.Sample(5)[0] == -99 {
		t.Fatal("Subset must copy")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range Subset index did not panic")
		}
	}()
	tr.Subset([]int{tr.N})
}

func TestByClassPartitionProperty(t *testing.T) {
	f := func(seed uint64) bool {
		tr, _ := Synthesize(MNISTSim().Scaled(0.05), seed)
		byc := tr.ByClass()
		total := 0
		for c, idxs := range byc {
			for _, i := range idxs {
				if tr.Y[i] != c {
					return false
				}
			}
			total += len(idxs)
		}
		return total == tr.N
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestClassSeparability(t *testing.T) {
	// Same-class samples must be closer (on average) than cross-class
	// samples — otherwise the classification task is vacuous.
	tr, _ := Synthesize(MNISTSim().Scaled(0.2), 5)
	byc := tr.ByClass()
	r := rng.New(9)
	within, across := 0.0, 0.0
	const trials = 300
	for i := 0; i < trials; i++ {
		c := r.Intn(tr.NumClasses)
		a := byc[c][r.Intn(len(byc[c]))]
		b := byc[c][r.Intn(len(byc[c]))]
		within += dist(tr.Sample(a), tr.Sample(b))
		c2 := (c + 1 + r.Intn(tr.NumClasses-1)) % tr.NumClasses
		d := byc[c2][r.Intn(len(byc[c2]))]
		across += dist(tr.Sample(a), tr.Sample(d))
	}
	if within >= across {
		t.Fatalf("classes not separable: within %.3f >= across %.3f", within/trials, across/trials)
	}
}

func dist(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

func TestDifficultyOrdering(t *testing.T) {
	// fashion-sim must have a lower separation ratio (harder) than
	// mnist-sim, mirroring the real datasets' difficulty ordering.
	ratio := func(spec Spec, seed uint64) float64 {
		tr, _ := Synthesize(spec.Scaled(0.2), seed)
		byc := tr.ByClass()
		r := rng.New(33)
		within, across := 0.0, 0.0
		for i := 0; i < 400; i++ {
			c := r.Intn(tr.NumClasses)
			a := byc[c][r.Intn(len(byc[c]))]
			b := byc[c][r.Intn(len(byc[c]))]
			within += dist(tr.Sample(a), tr.Sample(b))
			c2 := (c + 1 + r.Intn(tr.NumClasses-1)) % tr.NumClasses
			d := byc[c2][r.Intn(len(byc[c2]))]
			across += dist(tr.Sample(a), tr.Sample(d))
		}
		return across / within
	}
	if ratio(FashionSim(), 6) >= ratio(MNISTSim(), 6) {
		t.Fatal("fashion-sim should be harder (lower separation) than mnist-sim")
	}
}

func TestCIFAR100SimSuperClusters(t *testing.T) {
	// Classes sharing a super-class must have closer prototypes (sample
	// means) than classes in different super-classes.
	tr, _ := Synthesize(CIFAR100Sim().Scaled(0.3), 7)
	byc := tr.ByClass()
	mean := func(c int) []float64 {
		m := make([]float64, tr.Dim)
		for _, i := range byc[c] {
			tensor.Axpy(1, tr.Sample(i), m)
		}
		tensor.Scale(1/float64(len(byc[c])), m)
		return m
	}
	// Classes c and c+10 share a super-class (c % 10 == (c+10) % 10);
	// classes c and c+11 do not.
	same, diff := 0.0, 0.0
	for c := 0; c < 20; c++ {
		same += dist(mean(c), mean(c+10))
		diff += dist(mean(c), mean(c+11))
	}
	if same >= diff {
		t.Fatalf("super-cluster structure missing: same %.3f >= diff %.3f", same, diff)
	}
}

// TestSpecValidatePanics: Check returns an error for every bad spec,
// NaN included, and Synthesize panics with it.
func TestSpecValidatePanics(t *testing.T) {
	bad := []Spec{
		{Name: "x", Classes: 1, Shape: ImageShape{1, 2, 2}, TrainPerClass: 1, TestPerClass: 1, ProtoStd: 1},
		{Name: "x", Classes: 2, Shape: ImageShape{0, 2, 2}, TrainPerClass: 1, TestPerClass: 1, ProtoStd: 1},
		{Name: "x", Classes: 2, Shape: ImageShape{1, 2, 2}, TrainPerClass: 0, TestPerClass: 1, ProtoStd: 1},
		{Name: "x", Classes: 2, Shape: ImageShape{1, 2, 2}, TrainPerClass: 1, TestPerClass: 1, ProtoStd: 0},
		{Name: "x", Classes: 2, Shape: ImageShape{1, 2, 2}, TrainPerClass: 1, TestPerClass: 1, ProtoStd: 1, ClusterSharpen: 2},
		{Name: "x", Classes: 2, Shape: ImageShape{1, 2, 2}, TrainPerClass: 1, TestPerClass: 1, ProtoStd: math.NaN()},
		{Name: "x", Classes: 2, Shape: ImageShape{1, 2, 2}, TrainPerClass: 1, TestPerClass: 1, ProtoStd: 1, NoiseStd: math.NaN()},
		{Name: "x", Classes: 2, Shape: ImageShape{1, 2, 2}, TrainPerClass: 1, TestPerClass: 1, ProtoStd: 1, ClusterSharpen: math.NaN()},
	}
	for i, s := range bad {
		if s.Check() == nil {
			t.Fatalf("bad spec %d passed Check", i)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Synthesize accepted a one-class spec")
		}
	}()
	Synthesize(bad[0], 1)
}

func TestScaled(t *testing.T) {
	s := MNISTSim()
	half := s.Scaled(0.5)
	if half.TrainPerClass != 60 || half.TestPerClass != 15 {
		t.Fatalf("Scaled(0.5) = %d/%d", half.TrainPerClass, half.TestPerClass)
	}
	tiny := s.Scaled(0.0001)
	if tiny.TrainPerClass < 4 || tiny.TestPerClass < 2 {
		t.Fatal("Scaled floor violated")
	}
}

func TestStandardSpecs(t *testing.T) {
	for _, s := range []Spec{MNISTSim(), FashionSim(), CIFAR100Sim()} {
		if err := s.Check(); err != nil {
			t.Fatal(err)
		}
	}
	if CIFAR100Sim().Classes != 100 || MNISTSim().Classes != 10 {
		t.Fatal("class counts wrong")
	}
	if CIFAR100Sim().Shape.C != 3 {
		t.Fatal("cifar100-sim should be 3-channel")
	}
}
