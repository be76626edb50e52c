package dataset

// LabelFlipped is a read-only Data wrapper with deterministically
// flipped labels: class y reads as Classes()−1−y, features are passed
// through untouched. It is the dataset-layer half of the label-flip
// Byzantine attack — a poisoned client trains honestly on a flipped
// view of its own shard, so the poison enters through gradients rather
// than through tampered uploads.
//
// The wrapper composes with any Data source (Dataset, View, or another
// wrapper). Like View, it shares the source's storage and must only be
// read.
type LabelFlipped struct {
	src Data
}

var _ Data = (*LabelFlipped)(nil)

// FlipLabels wraps d with flipped labels. Flipping twice restores the
// original labels (the flip is an involution), but the result is a
// doubly-wrapped source, not d itself.
func FlipLabels(d Data) Data {
	return &LabelFlipped{src: d}
}

// Len returns the number of samples.
func (f *LabelFlipped) Len() int { return f.src.Len() }

// FeatureDim returns the flattened feature length of one sample.
func (f *LabelFlipped) FeatureDim() int { return f.src.FeatureDim() }

// Classes returns the number of label classes.
func (f *LabelFlipped) Classes() int { return f.src.Classes() }

// Sample passes features through unchanged (aliased, do not mutate).
func (f *LabelFlipped) Sample(i int) []float64 { return f.src.Sample(i) }

// Label returns the flipped class Classes()−1−y.
func (f *LabelFlipped) Label(i int) int { return f.src.Classes() - 1 - f.src.Label(i) }

// Raw reports non-contiguity: the source's contiguous label array (if
// any) holds the unflipped classes, so exposing it would bypass the
// flip.
func (f *LabelFlipped) Raw() (x []float64, y []int, ok bool) { return nil, nil, false }

// Materialize copies the samples into a contiguous private Dataset
// carrying the flipped labels.
func (f *LabelFlipped) Materialize() *Dataset {
	// Materialize may return the source's own storage (Dataset
	// materializes to itself), so copy via Subset before flipping.
	m := f.src.Materialize()
	idx := make([]int, m.N)
	for i := range idx {
		idx[i] = i
	}
	out := m.Subset(idx)
	for i, y := range out.Y {
		out.Y[i] = out.NumClasses - 1 - y
	}
	return out
}
