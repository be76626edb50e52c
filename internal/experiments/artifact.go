package experiments

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"feddrl/internal/fl"
	"feddrl/internal/metrics"
	"feddrl/internal/serialize"
)

// The experiment layer's job model: every grid experiment (Table 3, the
// figure sweeps, Table 4, the headline claim) decomposes into
// serializable CellSpec jobs whose results are machine-readable
// CellArtifacts. Rendering is a pure function of artifacts, so a grid
// can be computed in one process, sharded across machines
// (tables -shard i/n) or replicated over seeds (-seeds m) and always
// re-rendered into the exact same text.

// CellSpec fully identifies one runnable experiment cell. Dataset is
// the spec name within the run's Scale ("cifar100-sim", "fashion-sim",
// "mnist-sim"); Seed is the absolute seed the cell runs with, so a spec
// is executable with no context beyond the Scale.
//
// Attack, AttackFrac and Merger configure Byzantine fault injection and
// the robust merge rule (the byzantine grid); all three zero means the
// benign cell with the default impact-factor merge.
type CellSpec struct {
	Dataset    string
	Partition  string
	Method     string
	N, K       int
	Delta      float64
	Seed       uint64
	Attack     string
	AttackFrac float64
	Merger     string
}

// benign reports whether the spec carries no attack/merger fields, i.e.
// whether its key uses the legacy 7-field form.
func (c CellSpec) benign() bool {
	return c.Attack == "" && c.AttackFrac == 0 && c.Merger == ""
}

// Key returns the canonical string form of the spec — the identity used
// for caching, artifact encoding and shard assignment. ParseCellKey
// inverts it exactly (Delta and AttackFrac round-trip via strconv
// 'g'/-1). Benign specs emit the legacy 7-field key, byte-identical to
// the pre-byzantine format, so every existing cache record and shard
// file keeps its address; specs with any attack/merger field emit a
// 10-field key.
func (c CellSpec) Key() string {
	fields := []string{
		c.Dataset, c.Partition, c.Method,
		strconv.Itoa(c.N), strconv.Itoa(c.K),
		strconv.FormatFloat(c.Delta, 'g', -1, 64),
		strconv.FormatUint(c.Seed, 10),
	}
	if !c.benign() {
		fields = append(fields,
			c.Attack,
			strconv.FormatFloat(c.AttackFrac, 'g', -1, 64),
			c.Merger,
		)
	}
	return strings.Join(fields, "|")
}

// ParseCellKey inverts CellSpec.Key: 7 fields for a benign spec, 10 for
// one with attack/merger fields. A 10-field key whose three extra
// fields are all zero is rejected as non-canonical (its spec would
// re-encode to 7 fields), keeping Key∘ParseCellKey the identity.
func ParseCellKey(key string) (CellSpec, error) {
	parts := strings.Split(key, "|")
	if len(parts) != 7 && len(parts) != 10 {
		return CellSpec{}, fmt.Errorf("experiments: cell key %q has %d fields, want 7 or 10", key, len(parts))
	}
	n, err := strconv.Atoi(parts[3])
	if err != nil {
		return CellSpec{}, fmt.Errorf("experiments: cell key %q: N: %w", key, err)
	}
	k, err := strconv.Atoi(parts[4])
	if err != nil {
		return CellSpec{}, fmt.Errorf("experiments: cell key %q: K: %w", key, err)
	}
	delta, err := strconv.ParseFloat(parts[5], 64)
	if err != nil {
		return CellSpec{}, fmt.Errorf("experiments: cell key %q: delta: %w", key, err)
	}
	seed, err := strconv.ParseUint(parts[6], 10, 64)
	if err != nil {
		return CellSpec{}, fmt.Errorf("experiments: cell key %q: seed: %w", key, err)
	}
	spec := CellSpec{
		Dataset: parts[0], Partition: parts[1], Method: parts[2],
		N: n, K: k, Delta: delta, Seed: seed,
	}
	if len(parts) == 10 {
		frac, err := strconv.ParseFloat(parts[8], 64)
		if err != nil {
			return CellSpec{}, fmt.Errorf("experiments: cell key %q: attack fraction: %w", key, err)
		}
		spec.Attack, spec.AttackFrac, spec.Merger = parts[7], frac, parts[9]
		if spec.benign() {
			return CellSpec{}, fmt.Errorf("experiments: cell key %q spells zero attack/merger fields long-form; the canonical key has 7 fields", key)
		}
	}
	return spec, nil
}

// CellArtifact is the machine-readable result of running one CellSpec:
// exactly the series the renderers consume, nothing else (in particular
// no model weights), so shard files stay small.
type CellArtifact struct {
	Spec CellSpec

	// Accuracy is the test accuracy (%) at every evaluated round,
	// aligned with AccRounds.
	Accuracy  metrics.Series
	AccRounds []int

	// LossMean and LossVar are the per-round client inference-loss
	// statistics (the Fig. 6 robustness signal).
	LossMean metrics.Series
	LossVar  metrics.Series
}

// Best returns the best test accuracy reached (Table 3's reporting rule).
func (a *CellArtifact) Best() float64 { return a.Accuracy.Best() }

// Final returns the last evaluated test accuracy.
func (a *CellArtifact) Final() float64 { return a.Accuracy.Final() }

// artifactOf extracts a cell artifact from a full run result.
func artifactOf(spec CellSpec, r *fl.Result) *CellArtifact {
	return &CellArtifact{
		Spec:      spec,
		Accuracy:  append(metrics.Series(nil), r.Accuracy...),
		AccRounds: append([]int(nil), r.AccRounds...),
		LossMean:  r.ClientLossMeans(),
		LossVar:   r.ClientLossVars(),
	}
}

// cellVectorNames are the per-cell series stored by every cell codec,
// in checksum order.
var cellVectorNames = []string{"acc", "rounds", "lossmean", "lossvar"}

// cellVectorsInto writes a cell's series under prefix into a checkpoint
// — the single payload codec shared by artifact-set files and cache
// records, so the two formats cannot drift apart field by field.
func cellVectorsInto(c *serialize.Checkpoint, prefix string, a *CellArtifact) {
	c.Vectors[prefix+"acc"] = a.Accuracy
	c.Vectors[prefix+"rounds"] = intsToFloats(a.AccRounds)
	c.Vectors[prefix+"lossmean"] = a.LossMean
	c.Vectors[prefix+"lossvar"] = a.LossVar
}

// cellFromVectors decodes a cell's series stored under prefix.
func cellFromVectors(c *serialize.Checkpoint, prefix string, spec CellSpec) (*CellArtifact, error) {
	for _, suffix := range cellVectorNames {
		if _, ok := c.Vectors[prefix+suffix]; !ok {
			return nil, fmt.Errorf("experiments: cell %s missing vector %q", spec.Key(), suffix)
		}
	}
	return &CellArtifact{
		Spec:      spec,
		Accuracy:  c.Vectors[prefix+"acc"],
		AccRounds: floatsToInts(c.Vectors[prefix+"rounds"]),
		LossMean:  c.Vectors[prefix+"lossmean"],
		LossVar:   c.Vectors[prefix+"lossvar"],
	}, nil
}

// cellPayloadSum content-hashes a cell's stored series in
// cellVectorNames order — the integrity checksum carried by cache
// records. It hashes the raw checkpoint vectors, not the decoded
// artifact, so any stored-payload bit rot is detected even where
// decoding would mask it (e.g. the float→int truncation of "rounds").
func cellPayloadSum(c *serialize.Checkpoint, prefix string) string {
	h := serialize.NewHasher()
	for _, suffix := range cellVectorNames {
		h.Floats(c.Vectors[prefix+suffix])
	}
	return h.Sum()
}

// ArtifactSet is a collection of cell artifacts from one experiment
// invocation — the whole grid, or one shard of it. The header fields
// pin everything a renderer needs to reconstruct the run: experiment
// id, scale name (plus the one CLI-overridable scale field, Rounds),
// base seed and seed-replicate count.
type ArtifactSet struct {
	Experiment string
	ScaleName  string
	Rounds     int
	Seed       uint64
	Seeds      int

	Cells map[string]*CellArtifact
	order []string
}

// NewArtifactSet returns an empty set for one experiment invocation.
func NewArtifactSet(experiment string, s Scale, seed uint64, seeds int) *ArtifactSet {
	if seeds < 1 {
		seeds = 1
	}
	return &ArtifactSet{
		Experiment: experiment,
		ScaleName:  s.Name,
		Rounds:     s.Rounds,
		Seed:       seed,
		Seeds:      seeds,
		Cells:      map[string]*CellArtifact{},
	}
}

// Add inserts an artifact; re-adding the same cell replaces it in place.
func (as *ArtifactSet) Add(a *CellArtifact) {
	key := a.Spec.Key()
	if _, ok := as.Cells[key]; !ok {
		as.order = append(as.order, key)
	}
	as.Cells[key] = a
}

// Get looks up the artifact for a spec.
func (as *ArtifactSet) Get(spec CellSpec) (*CellArtifact, bool) {
	a, ok := as.Cells[spec.Key()]
	return a, ok
}

// get is the ArtifactGetter every renderer and CSV builder reads
// through. A renderer that asks for a cell outside its grid's job list
// is a bug, so that panics, naming the cell.
func (as *ArtifactSet) get(spec CellSpec) *CellArtifact {
	a, ok := as.Get(spec)
	if !ok {
		panic(fmt.Sprintf("experiments: renderer requested cell %s outside the job list", spec.Key()))
	}
	return a
}

// Len returns the number of cells in the set.
func (as *ArtifactSet) Len() int { return len(as.order) }

// artifactSetSum content-hashes an encoded set as stored: its header
// fields, then the key and series of each of its count cells. A merge
// renders from all of them (the header's rounds set the scale), so a
// flipped bit anywhere in them must reject the file.
func artifactSetSum(c *serialize.Checkpoint, count int) string {
	h := serialize.NewHasher()
	for _, f := range []string{"experiment", "scale", "rounds", "seed", "seeds", "cells"} {
		h.String(c.Meta[f])
	}
	for i := 0; i < count; i++ {
		h.String(c.Meta[fmt.Sprintf("cell.%06d", i)])
		prefix := fmt.Sprintf("c%06d.", i)
		for _, suffix := range cellVectorNames {
			h.Floats(c.Vectors[prefix+suffix])
		}
	}
	return h.Sum()
}

// Checkpoint encodes the set into the repository's binary checkpoint
// format, with a checksum over everything it decodes back. float64
// payloads round-trip bit-exactly, which is what makes the
// shard→merge→render path byte-identical to an unsharded run.
func (as *ArtifactSet) Checkpoint() *serialize.Checkpoint {
	c := serialize.NewCheckpoint()
	c.Meta["kind"] = "experiment-artifacts"
	c.Meta["experiment"] = as.Experiment
	c.Meta["scale"] = as.ScaleName
	c.Meta["rounds"] = strconv.Itoa(as.Rounds)
	c.Meta["seed"] = strconv.FormatUint(as.Seed, 10)
	c.Meta["seeds"] = strconv.Itoa(as.Seeds)
	c.Meta["cells"] = strconv.Itoa(len(as.order))
	for i, key := range as.order {
		c.Meta[fmt.Sprintf("cell.%06d", i)] = key
		cellVectorsInto(c, fmt.Sprintf("c%06d.", i), as.Cells[key])
	}
	c.Meta["checksum"] = artifactSetSum(c, len(as.order))
	return c
}

// ArtifactSetFromCheckpoint decodes a set written by Checkpoint. It
// rejects a set whose checksum is missing or does not match.
func ArtifactSetFromCheckpoint(c *serialize.Checkpoint) (*ArtifactSet, error) {
	if c.Meta["kind"] != "experiment-artifacts" {
		return nil, fmt.Errorf("experiments: checkpoint kind %q is not an artifact set", c.Meta["kind"])
	}
	rounds, err := strconv.Atoi(c.Meta["rounds"])
	if err != nil {
		return nil, fmt.Errorf("experiments: artifact rounds: %w", err)
	}
	seed, err := strconv.ParseUint(c.Meta["seed"], 10, 64)
	if err != nil {
		return nil, fmt.Errorf("experiments: artifact seed: %w", err)
	}
	seeds, err := strconv.Atoi(c.Meta["seeds"])
	if err != nil {
		return nil, fmt.Errorf("experiments: artifact seeds: %w", err)
	}
	count, err := strconv.Atoi(c.Meta["cells"])
	if err != nil {
		return nil, fmt.Errorf("experiments: artifact cell count: %w", err)
	}
	as := &ArtifactSet{
		Experiment: c.Meta["experiment"],
		ScaleName:  c.Meta["scale"],
		Rounds:     rounds,
		Seed:       seed,
		Seeds:      seeds,
		Cells:      map[string]*CellArtifact{},
	}
	for i := 0; i < count; i++ {
		key, ok := c.Meta[fmt.Sprintf("cell.%06d", i)]
		if !ok {
			return nil, fmt.Errorf("experiments: artifact cell %d missing from metadata", i)
		}
		spec, err := ParseCellKey(key)
		if err != nil {
			return nil, err
		}
		a, err := cellFromVectors(c, fmt.Sprintf("c%06d.", i), spec)
		if err != nil {
			return nil, err
		}
		as.Add(a)
	}
	// Checked once every cell key is known to exist, so a corrupt count
	// fails at its first missing cell rather than hashing up to it.
	if artifactSetSum(c, count) != c.Meta["checksum"] {
		return nil, fmt.Errorf("experiments: artifact set checksum missing or mismatched (corrupt file, or one written before sets carried a checksum)")
	}
	return as, nil
}

// SaveFile writes the set to a shard artifact file.
func (as *ArtifactSet) SaveFile(path string) error {
	return as.Checkpoint().SaveFile(path)
}

// LoadArtifactSet reads a shard artifact file written by SaveFile.
func LoadArtifactSet(path string) (*ArtifactSet, error) {
	c, err := serialize.LoadFile(path)
	if err != nil {
		return nil, err
	}
	return ArtifactSetFromCheckpoint(c)
}

// MissingCells returns the keys of specs absent from the set, sorted
// lexically — the merge-coverage check of RenderSet.
func (as *ArtifactSet) MissingCells(jobs []CellSpec) []string {
	var missing []string
	seen := map[string]bool{}
	for _, j := range jobs {
		key := j.Key()
		if _, ok := as.Cells[key]; !ok && !seen[key] {
			seen[key] = true
			missing = append(missing, key)
		}
	}
	sort.Strings(missing)
	return missing
}

func intsToFloats(v []int) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = float64(x)
	}
	return out
}

func floatsToInts(v []float64) []int {
	out := make([]int, len(v))
	for i, x := range v {
		out[i] = int(x)
	}
	return out
}
