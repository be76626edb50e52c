package experiments

import (
	"fmt"
	"strings"

	"feddrl/internal/metrics"
)

// table4Partitions are the §5.1 label-size-imbalance shard partitions.
var table4Partitions = []string{"Equal", "Non-equal"}

// table4Spec builds one Table 4 cell (seed offset by N, preserving the
// historical seeding).
func table4Spec(s Scale, part, method string, n int, seed uint64) CellSpec {
	ds := s.datasets()[0] // cifar100-sim
	return CellSpec{Dataset: ds.Name, Partition: part, Method: method, N: n, K: s.K, Delta: defaultDelta, Seed: seed + uint64(n)}
}

// table4Jobs enumerates the Table 4 grid: {SmallN, LargeN} ×
// {Equal, Non-equal} × four methods on the 100-class dataset.
func table4Jobs(s Scale, seed uint64) []CellSpec {
	var jobs []CellSpec
	for _, n := range []int{s.SmallN, s.LargeN} {
		for _, part := range table4Partitions {
			for _, m := range Methods {
				jobs = append(jobs, table4Spec(s, part, m, n, seed))
			}
		}
	}
	return jobs
}

// renderTable4 reproduces the label-size-imbalance study of §5.1: top-1
// accuracy on the 100-class dataset under the FedAvg-style Equal and
// Non-equal shard partitions, for SmallN and LargeN clients.
func renderTable4(s Scale, seed uint64, _ int, get ArtifactGetter) string {
	spec := s.datasets()[0] // cifar100-sim
	var b strings.Builder
	fmt.Fprintf(&b, "Table 4: top-1 accuracy (%%) with label-size-imbalance shards, %s\n\n", spec.Name)
	for _, n := range []int{s.SmallN, s.LargeN} {
		tab := &metrics.Table{
			Title:   fmt.Sprintf("%d clients", n),
			Headers: []string{"method", "Equal", "Non-equal"},
		}
		vals := map[string]map[string]float64{}
		for _, part := range table4Partitions {
			vals[part] = map[string]float64{}
			for _, m := range Methods {
				vals[part][m] = get(table4Spec(s, part, m, n, seed)).Best()
			}
		}
		for _, m := range Methods {
			tab.AddRow(m, metrics.F(vals["Equal"][m]), metrics.F(vals["Non-equal"][m]))
		}
		b.WriteString(tab.RenderString())
		b.WriteByte('\n')
	}
	return b.String()
}
