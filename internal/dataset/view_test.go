package dataset

import (
	"math"
	"reflect"
	"testing"
)

func viewFixture(t *testing.T) (*Dataset, []int) {
	t.Helper()
	d, _ := Synthesize(MNISTSim().Scaled(0.05), 7)
	idx := []int{3, 0, 9, 9, 5, d.N - 1}
	return d, idx
}

// TestViewMatchesSubset: every observation through a View must equal the
// materialized Subset of the same indices — the property the federated
// eager/lazy bit-identity contract is built on.
func TestViewMatchesSubset(t *testing.T) {
	d, idx := viewFixture(t)
	v := d.View(idx)
	s := d.Subset(idx)

	if v.Len() != s.N || v.FeatureDim() != s.Dim || v.Classes() != s.NumClasses {
		t.Fatalf("view dims (%d,%d,%d) != subset (%d,%d,%d)",
			v.Len(), v.FeatureDim(), v.Classes(), s.N, s.Dim, s.NumClasses)
	}
	for i := 0; i < v.Len(); i++ {
		if v.Label(i) != s.Y[i] {
			t.Fatalf("label %d differs", i)
		}
		vs, ss := v.Sample(i), s.Sample(i)
		for j := range vs {
			if math.Float64bits(vs[j]) != math.Float64bits(ss[j]) {
				t.Fatalf("sample %d element %d differs bitwise", i, j)
			}
		}
	}
	byClass := make([][]int, v.Classes())
	for i := 0; i < v.Len(); i++ {
		byClass[v.Label(i)] = append(byClass[v.Label(i)], i)
	}
	if !reflect.DeepEqual(byClass, s.ByClass()) {
		t.Fatal("ByClass differs between view and subset")
	}
	m := v.Materialize()
	if !reflect.DeepEqual(m.X, s.X) || !reflect.DeepEqual(m.Y, s.Y) {
		t.Fatal("Materialize differs from Subset")
	}
	v.Validate()
}

// TestViewZeroCopy verifies the aliasing contract: a view reads the
// parent's storage directly, with no copied shard data.
func TestViewZeroCopy(t *testing.T) {
	d, idx := viewFixture(t)
	v := d.View(idx)
	if x, y, ok := v.Raw(); ok || x != nil || y != nil {
		t.Fatal("view claims contiguous raw storage")
	}
	if x, _, ok := d.Raw(); !ok || &x[0] != &d.X[0] {
		t.Fatal("dataset Raw is not the backing array")
	}
	// Sample must alias the parent row, not a copy.
	if &v.Sample(0)[0] != &d.Sample(idx[0])[0] {
		t.Fatal("view sample is a copy, not an alias")
	}
	if v.Parent() != d {
		t.Fatal("Parent mismatch")
	}
	if &v.idx[0] != &idx[0] {
		t.Fatal("the view copied its index recipe instead of retaining it")
	}
}

func TestViewBadIndexPanics(t *testing.T) {
	d, _ := viewFixture(t)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range view index did not panic")
		}
	}()
	d.View([]int{0, d.N})
}

func TestViewEmpty(t *testing.T) {
	d, _ := viewFixture(t)
	v := d.View(nil)
	if v.Len() != 0 {
		t.Fatal("empty view has samples")
	}
	if m := v.Materialize(); m.N != 0 {
		t.Fatal("materialized empty view has samples")
	}
}

// TestDatasetImplementsData pins the Data surface of the concrete
// Dataset to its fields.
func TestDatasetImplementsData(t *testing.T) {
	d, _ := viewFixture(t)
	var data Data = d
	if data.Len() != d.N || data.FeatureDim() != d.Dim || data.Classes() != d.NumClasses {
		t.Fatal("Dataset Data methods disagree with fields")
	}
	if data.Label(2) != d.Y[2] {
		t.Fatal("Label mismatch")
	}
	if data.Materialize() != d {
		t.Fatal("Dataset.Materialize must return itself")
	}
}
