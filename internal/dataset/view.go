package dataset

import "fmt"

// Data is the read-only sample-access surface shared by a materialized
// Dataset and a zero-copy View. The federated client layer trains
// against this interface, so a client shard can be either a private
// copy (Subset) or an index recipe over one shared dataset (View) —
// the values observed through the interface are identical either way,
// which is what keeps the eager and lazy client paths bit-identical.
type Data interface {
	// Len returns the number of samples.
	Len() int
	// FeatureDim returns the flattened feature length of one sample.
	FeatureDim() int
	// Classes returns the number of label classes.
	Classes() int
	// Sample returns sample i's features. The returned slice aliases
	// the underlying storage and must not be mutated.
	Sample(i int) []float64
	// Label returns sample i's class.
	Label(i int) int
	// Raw returns the contiguous backing arrays when samples are stored
	// contiguously (sample i at x[i*dim:(i+1)*dim]), enabling zero-copy
	// chunking; non-contiguous implementations return ok=false.
	Raw() (x []float64, y []int, ok bool)
	// Materialize returns a contiguous *Dataset with the same samples —
	// the escape hatch for code that needs contiguity or a mutable
	// private copy.
	Materialize() *Dataset
}

var (
	_ Data = (*Dataset)(nil)
	_ Data = (*View)(nil)
)

// Len returns the number of samples (the N field, as a method so
// Dataset satisfies Data).
func (d *Dataset) Len() int { return d.N }

// FeatureDim returns the flattened sample length (the Dim field).
func (d *Dataset) FeatureDim() int { return d.Dim }

// Classes returns the number of label classes (the NumClasses field).
func (d *Dataset) Classes() int { return d.NumClasses }

// Label returns sample i's class.
func (d *Dataset) Label(i int) int { return d.Y[i] }

// Raw exposes the contiguous backing arrays.
func (d *Dataset) Raw() (x []float64, y []int, ok bool) { return d.X, d.Y, true }

// Materialize returns the dataset itself: it is already contiguous.
// Callers that need a private mutable copy should use Subset.
func (d *Dataset) Materialize() *Dataset { return d }

// View is a zero-copy subset of a parent dataset: an index recipe
// instead of copied storage. Views satisfy the same Sample/Validate
// surface as Dataset, sharing the parent's X/Y arrays — a view of any
// size costs len(idx) ints, not len(idx)*Dim floats.
//
// Aliasing rules: a view shares the parent's storage, so mutating
// sample data through a view (or mutating the parent while views are
// live) is forbidden; the training and evaluation paths only read.
// The index slice is retained, not copied — the caller must not modify
// it while the view is in use. Materialize returns a private
// contiguous copy for code that needs either mutation or contiguity.
type View struct {
	parent *Dataset
	idx    []int
}

// View returns a zero-copy view of the samples at the given indices.
// Indices are validated eagerly, like Subset, and retained (not
// copied).
func (d *Dataset) View(idx []int) *View {
	for _, i := range idx {
		if i < 0 || i >= d.N {
			panic(fmt.Sprintf("dataset: View index %d out of %d samples", i, d.N))
		}
	}
	return &View{parent: d, idx: idx}
}

// Len returns the number of samples in the view.
func (v *View) Len() int { return len(v.idx) }

// FeatureDim returns the parent's flattened sample length.
func (v *View) FeatureDim() int { return v.parent.Dim }

// Classes returns the parent's class count.
func (v *View) Classes() int { return v.parent.NumClasses }

// Sample returns view-sample i's features — a slice into the parent's
// storage (do not mutate).
func (v *View) Sample(i int) []float64 { return v.parent.Sample(v.idx[i]) }

// Label returns view-sample i's class.
func (v *View) Label(i int) int { return v.parent.Y[v.idx[i]] }

// Raw reports non-contiguity: a view's samples are scattered through
// the parent's storage.
func (v *View) Raw() (x []float64, y []int, ok bool) { return nil, nil, false }

// Parent returns the dataset the view indexes into.
func (v *View) Parent() *Dataset { return v.parent }

// Materialize copies the viewed samples into a contiguous private
// Dataset (the Subset semantics).
func (v *View) Materialize() *Dataset { return v.parent.Subset(v.idx) }

// Validate panics if the view's invariants are broken: every index must
// be in the parent's range and the parent itself must be valid.
func (v *View) Validate() {
	v.parent.Validate()
	for _, i := range v.idx {
		if i < 0 || i >= v.parent.N {
			panic(fmt.Sprintf("dataset %q: view index %d out of %d samples", v.parent.Name, i, v.parent.N))
		}
	}
}
