package experiments

import (
	"fmt"
	"strings"

	"feddrl/internal/metrics"
)

// headlineSeeds is the fixed replicate count of the headline runner
// (the grid already carries its own seed averaging, so it does not also
// support -seeds).
const headlineSeeds = 3

var (
	headlineParts   = []string{"CE", "CN"}
	headlineMethods = []string{"FedAvg", "FedDRL"}
)

// headlineJobs enumerates the headline grid: every dataset ×
// {SmallN, LargeN} × {CE, CN} × {FedAvg, FedDRL} × three seed
// replicates (stride seedStride, the historical 1009).
func headlineJobs(s Scale, seed uint64) []CellSpec {
	var jobs []CellSpec
	for _, spec := range s.datasets() {
		for _, n := range []int{s.SmallN, s.LargeN} {
			for _, part := range headlineParts {
				for _, m := range headlineMethods {
					for r := 0; r < headlineSeeds; r++ {
						jobs = append(jobs, replicateSpec(table3Spec(s, spec.Name, part, m, n, seed), r))
					}
				}
			}
		}
	}
	return jobs
}

// renderHeadline tests the paper's core claim with seed averaging: under
// cluster skew (CE, CN) FedDRL's learned aggregation should match or
// beat FedAvg, with the gap widening at higher client counts (§4.2.1's
// reading of Table 3). Single-seed cells at reduced scale carry ±
// several points of noise; each cell is repeated over headlineSeeds
// runs and reported as mean ± std.
func renderHeadline(s Scale, seed uint64, _ int, get ArtifactGetter) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Headline claim (Table 3's CE/CN columns, mean of %d seeds): FedDRL vs FedAvg under cluster skew\n\n", headlineSeeds)
	tab := &metrics.Table{
		Headers: []string{"dataset", "N", "partition", "FedAvg", "FedDRL", "delta"},
	}
	for _, spec := range s.datasets() {
		for _, n := range []int{s.SmallN, s.LargeN} {
			for _, part := range headlineParts {
				ma, avg := seedCell(get, table3Spec(s, spec.Name, part, "FedAvg", n, seed), headlineSeeds)
				md, drl := seedCell(get, table3Spec(s, spec.Name, part, "FedDRL", n, seed), headlineSeeds)
				tab.AddRow(spec.Name, fmt.Sprintf("%d", n), part, avg, drl, fmt.Sprintf("%+.2f", md-ma))
			}
		}
	}
	b.WriteString(tab.RenderString())
	b.WriteString("\n(positive delta = FedDRL better; the paper's shape is parity-to-positive\non CE/CN, with larger deltas at the larger client count)\n")
	return b.String()
}
