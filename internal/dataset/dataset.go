// Package dataset provides the federated datasets of the reproduction.
//
// The paper evaluates on MNIST, Fashion-MNIST and CIFAR-100 (§4.1.1).
// Those corpora are unavailable offline, so this package synthesizes
// class-conditional Gaussian image datasets with matching *label
// geometry*: `mnist-sim` and `fashion-sim` have 10 classes (Fashion with
// higher intra-class noise, making it harder, as in the paper), and
// `cifar100-sim` has 100 classes with 3 channels and the highest noise.
// Every non-IID partitioner the paper studies manipulates labels and
// sample counts only, so the synthetic datasets exercise exactly the same
// aggregation behaviour; see DESIGN.md §1 for the substitution argument.
package dataset

import (
	"fmt"
	"math"

	"feddrl/internal/rng"
)

// ImageShape describes the CHW layout of one sample.
type ImageShape struct{ C, H, W int }

// Len returns the flattened sample length.
func (s ImageShape) Len() int { return s.C * s.H * s.W }

// Dataset is an in-memory labelled dataset. Samples are stored flattened
// and contiguous: sample i occupies X[i*Dim : (i+1)*Dim].
type Dataset struct {
	Name       string
	X          []float64
	Y          []int
	N          int
	Dim        int
	NumClasses int
	Shape      ImageShape
}

// Sample returns a view of the i-th sample's features.
func (d *Dataset) Sample(i int) []float64 {
	return d.X[i*d.Dim : (i+1)*d.Dim]
}

// Subset returns a new dataset containing the samples at the given
// indices (copied).
func (d *Dataset) Subset(idx []int) *Dataset {
	out := &Dataset{
		Name:       d.Name,
		X:          make([]float64, len(idx)*d.Dim),
		Y:          make([]int, len(idx)),
		N:          len(idx),
		Dim:        d.Dim,
		NumClasses: d.NumClasses,
		Shape:      d.Shape,
	}
	for j, i := range idx {
		if i < 0 || i >= d.N {
			panic(fmt.Sprintf("dataset: Subset index %d out of %d samples", i, d.N))
		}
		copy(out.X[j*d.Dim:(j+1)*d.Dim], d.Sample(i))
		out.Y[j] = d.Y[i]
	}
	return out
}

// ByClass returns, for each class, the indices of its samples.
func (d *Dataset) ByClass() [][]int {
	out := make([][]int, d.NumClasses)
	for i, y := range d.Y {
		out[y] = append(out[y], i)
	}
	return out
}

// Validate panics if the dataset's invariants are broken (used by tests
// and by the partitioners' preconditions).
func (d *Dataset) Validate() {
	if d.N*d.Dim != len(d.X) {
		panic(fmt.Sprintf("dataset %q: X length %d != N*Dim %d", d.Name, len(d.X), d.N*d.Dim))
	}
	if len(d.Y) != d.N {
		panic(fmt.Sprintf("dataset %q: Y length %d != N %d", d.Name, len(d.Y), d.N))
	}
	for i, y := range d.Y {
		if y < 0 || y >= d.NumClasses {
			panic(fmt.Sprintf("dataset %q: label %d of sample %d out of range", d.Name, y, i))
		}
	}
	if d.Shape.Len() != 0 && d.Shape.Len() != d.Dim {
		panic(fmt.Sprintf("dataset %q: shape %v inconsistent with dim %d", d.Name, d.Shape, d.Dim))
	}
}

// Spec configures a synthetic dataset. Class c's samples are drawn as
// sigmoid(prototype_c + noise) where prototype_c ~ N(0, ProtoStd²·I) and
// noise ~ N(0, NoiseStd²·I): higher NoiseStd/ProtoStd ratios yield harder
// tasks. ClusterSharpen > 0 additionally mixes each prototype toward one
// of a few "super-prototypes", giving classes a coarse cluster structure
// like coarse labels in CIFAR-100.
type Spec struct {
	Name           string
	Classes        int
	Shape          ImageShape
	TrainPerClass  int
	TestPerClass   int
	ProtoStd       float64
	NoiseStd       float64
	SuperClasses   int     // 0 disables super-prototype mixing
	ClusterSharpen float64 // in [0,1]: fraction of super-prototype in each prototype
}

// Check reports an inconsistent spec.
func (s Spec) Check() error {
	switch {
	case s.Classes <= 1 || s.Shape.Len() <= 0 || s.TrainPerClass <= 0 || s.TestPerClass <= 0:
		return fmt.Errorf("dataset: invalid spec %+v", s)
	case !(s.ProtoStd > 0 && s.NoiseStd >= 0):
		return fmt.Errorf("dataset: invalid spec stds %+v", s)
	case !(0 <= s.ClusterSharpen && s.ClusterSharpen <= 1):
		return fmt.Errorf("dataset: ClusterSharpen %v out of [0,1]", s.ClusterSharpen)
	}
	return nil
}

// MNISTSim returns the spec for the MNIST analogue: 10 well-separated
// classes on 8×8 single-channel images.
func MNISTSim() Spec {
	return Spec{
		Name: "mnist-sim", Classes: 10,
		Shape:         ImageShape{C: 1, H: 8, W: 8},
		TrainPerClass: 120, TestPerClass: 30,
		ProtoStd: 1.5, NoiseStd: 0.6,
	}
}

// FashionSim returns the spec for the Fashion-MNIST analogue: 10 classes
// with higher intra-class noise (harder than mnist-sim, as in the paper).
func FashionSim() Spec {
	return Spec{
		Name: "fashion-sim", Classes: 10,
		Shape:         ImageShape{C: 1, H: 8, W: 8},
		TrainPerClass: 120, TestPerClass: 30,
		ProtoStd: 1.2, NoiseStd: 1.1,
	}
}

// CIFAR100Sim returns the spec for the CIFAR-100 analogue: 100 classes on
// 3-channel 8×8 images, grouped under 10 super-classes (mirroring
// CIFAR-100's coarse labels), with the highest noise.
func CIFAR100Sim() Spec {
	return Spec{
		Name: "cifar100-sim", Classes: 100,
		Shape:         ImageShape{C: 3, H: 8, W: 8},
		TrainPerClass: 24, TestPerClass: 6,
		ProtoStd: 1.1, NoiseStd: 1.0,
		SuperClasses: 10, ClusterSharpen: 0.4,
	}
}

// Scaled returns a copy of the spec with per-class sample counts scaled
// by f (minimum 4 train / 2 test per class), used to derive CI-scale
// configurations from the paper-scale ones.
func (s Spec) Scaled(f float64) Spec {
	out := s
	out.TrainPerClass = int(math.Max(4, math.Round(float64(s.TrainPerClass)*f)))
	out.TestPerClass = int(math.Max(2, math.Round(float64(s.TestPerClass)*f)))
	return out
}

// Synthesize generates the train and test splits for a spec. Generation
// is fully deterministic given (spec, seed); the same class prototypes
// underlie both splits.
func Synthesize(s Spec, seed uint64) (train, test *Dataset) {
	if err := s.Check(); err != nil {
		panic(err)
	}
	r := rng.New(seed)
	dim := s.Shape.Len()

	// Super-prototypes for coarse cluster structure.
	var super [][]float64
	if s.SuperClasses > 0 && s.ClusterSharpen > 0 {
		super = make([][]float64, s.SuperClasses)
		for i := range super {
			super[i] = make([]float64, dim)
			for j := range super[i] {
				super[i][j] = r.Normal(0, s.ProtoStd)
			}
		}
	}

	protos := make([][]float64, s.Classes)
	for c := range protos {
		protos[c] = make([]float64, dim)
		for j := range protos[c] {
			protos[c][j] = r.Normal(0, s.ProtoStd)
		}
		if super != nil {
			sp := super[c%s.SuperClasses]
			for j := range protos[c] {
				protos[c][j] = (1-s.ClusterSharpen)*protos[c][j] + s.ClusterSharpen*sp[j]
			}
		}
	}

	gen := func(perClass int, name string) *Dataset {
		n := perClass * s.Classes
		d := &Dataset{
			Name: name, X: make([]float64, n*dim), Y: make([]int, n),
			N: n, Dim: dim, NumClasses: s.Classes, Shape: s.Shape,
		}
		i := 0
		for c := 0; c < s.Classes; c++ {
			for k := 0; k < perClass; k++ {
				sample := d.X[i*dim : (i+1)*dim]
				for j := range sample {
					v := protos[c][j] + r.Normal(0, s.NoiseStd)
					sample[j] = 1 / (1 + math.Exp(-v)) // squash into (0,1) like pixel intensities
				}
				d.Y[i] = c
				i++
			}
		}
		// Shuffle so that contiguous index ranges are not class-pure.
		perm := r.Perm(n)
		shuffled := d.Subset(perm)
		shuffled.Name = name
		return shuffled
	}

	train = gen(s.TrainPerClass, s.Name+"/train")
	test = gen(s.TestPerClass, s.Name+"/test")
	return train, test
}
