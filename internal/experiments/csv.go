package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"

	"feddrl/internal/metrics"
)

// csvSeries maps each experiment id with a CSV export to its series
// builder. The figure runners print text tables; ExportCSV writes the
// same series as CSV files for external plotting, one file per figure
// panel (cmd/tables -csvdir). A builder reads cell artifacts through the
// getter of the ArtifactSet the text render computed, and returns its
// series keyed by file name.
var csvSeries = map[string]func(s Scale, seed uint64, get ArtifactGetter) map[string]*metrics.SeriesSet{
	"figure5": figure5Series,
	"figure7": figure7Series,
	"figure8": figure8Series,
}

// figure5Series returns one SeriesSet per (dataset, partition) panel of
// Figure 5, keyed "figure5-<dataset>-<partition>".
func figure5Series(s Scale, seed uint64, get ArtifactGetter) map[string]*metrics.SeriesSet {
	out := map[string]*metrics.SeriesSet{}
	for _, spec := range s.datasets() {
		if spec.Name == "mnist-sim" {
			continue
		}
		for _, part := range PartitionNames {
			ref := get(table3Spec(s, spec.Name, part, "FedAvg", s.SmallN, seed))
			x := make([]float64, len(ref.AccRounds))
			for i, r := range ref.AccRounds {
				x[i] = float64(r)
			}
			ss := metrics.NewSeriesSet("round", x)
			for _, m := range fedMethods {
				ss.Add(m, get(table3Spec(s, spec.Name, part, m, s.SmallN, seed)).Accuracy)
			}
			out[fmt.Sprintf("figure5-%s-%s", spec.Name, part)] = ss
		}
	}
	return out
}

// figure7Series returns the participation-sweep series (x = K).
func figure7Series(s Scale, seed uint64, get ArtifactGetter) map[string]*metrics.SeriesSet {
	x := make([]float64, len(s.KSweep))
	for i, k := range s.KSweep {
		x[i] = float64(k)
	}
	return map[string]*metrics.SeriesSet{
		"figure7": sweepSeries("K", x, get, func(i int, m string) CellSpec { return figure7Spec(s, s.KSweep[i], m, seed) }),
	}
}

// figure8Series returns the non-IID-level-sweep series (x = delta).
func figure8Series(s Scale, seed uint64, get ArtifactGetter) map[string]*metrics.SeriesSet {
	return map[string]*metrics.SeriesSet{
		"figure8": sweepSeries("delta", slices.Clone(s.Deltas), get, func(i int, m string) CellSpec { return figure8Spec(s, s.Deltas[i], m, seed) }),
	}
}

// sweepSeries is the CSV twin of sweepTable: one best-accuracy series
// per federated method over the swept x values.
func sweepSeries(xName string, x []float64, get ArtifactGetter, spec func(i int, m string) CellSpec) *metrics.SeriesSet {
	ss := metrics.NewSeriesSet(xName, x)
	for _, m := range fedMethods {
		col := make(metrics.Series, len(x))
		for i := range x {
			col[i] = get(spec(i, m)).Best()
		}
		ss.Add(m, col)
	}
	return ss
}

// ExportCSV writes the figure series of a computed artifact set (from
// RunSeedsCached or RunShardCached at scale s) into dir, returning the
// written file paths sorted. Supported experiments: figure5, figure7,
// figure8; any other is rejected before dir is created. It trains
// nothing: every cell comes from the set.
func ExportCSV(s Scale, set *ArtifactSet, dir string) ([]string, error) {
	series, ok := csvSeries[set.Experiment]
	if !ok {
		return nil, fmt.Errorf("experiments: no CSV export for %q (supported: figure5, figure7, figure8)", set.Experiment)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("experiments: csv dir: %w", err)
	}
	var paths []string
	for name, ss := range series(s, set.Seed, set.get) {
		p := filepath.Join(dir, name+".csv")
		if err := ss.SaveCSV(p); err != nil {
			return nil, err
		}
		paths = append(paths, p)
	}
	slices.Sort(paths)
	return paths, nil
}
