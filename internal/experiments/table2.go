package experiments

import (
	"fmt"
	"strings"

	"feddrl/internal/dataset"
	"feddrl/internal/metrics"
	"feddrl/internal/partition"
	"feddrl/internal/rng"
)

// Table2 reproduces Table 2: which non-IID properties (cluster skew,
// label-size imbalance, quantity imbalance) each partitioner exhibits —
// derived here from measured partition statistics rather than asserted.
func Table2(s Scale, seed uint64) string {
	spec := dataset.MNISTSim().Scaled(s.DataScale)
	train, _ := dataset.Synthesize(spec, seed)
	t := &metrics.Table{
		Title:   "Table 2: characteristics of non-IID partition methods (measured)",
		Headers: []string{"Partition", "ClusterSkew", "LabelSizeImb", "QuantityImb", "clusterScore", "quantityCV"},
	}
	mark := func(b bool) string {
		if b {
			return "yes"
		}
		return "no"
	}
	for _, name := range PartitionNames {
		a := buildPartition(name, train, s.SmallN, defaultDelta, rng.New(seed+7))
		st := partition.ComputeStats(train, a)
		ch := st.Characteristics(train.NumClasses)
		t.AddRow(name, mark(ch.ClusterSkew), mark(ch.LabelSizeImbalance), mark(ch.QuantityImbalance),
			fmt.Sprintf("%.3f", st.ClusterScore), fmt.Sprintf("%.3f", st.QuantityCV))
	}
	return t.RenderString()
}

// Figure4 reproduces Figure 4: an illustration of how PA, CE and CN
// distribute a 10-class dataset over 10 clients (glyph area ∝ samples).
func Figure4(s Scale, seed uint64) string {
	spec := dataset.MNISTSim().Scaled(s.DataScale)
	train, _ := dataset.Synthesize(spec, seed)
	var b strings.Builder
	b.WriteString("Figure 4: data partitioning illustrations (10 clients)\n\n")
	for _, name := range PartitionNames {
		a := buildPartition(name, train, 10, defaultDelta, rng.New(seed+7))
		b.WriteString(partition.ASCII(train, a))
		b.WriteByte('\n')
	}
	return b.String()
}
