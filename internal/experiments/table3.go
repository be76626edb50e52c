package experiments

import (
	"fmt"
	"strings"

	"feddrl/internal/mathx"
	"feddrl/internal/metrics"
)

// table3Spec builds the cell spec of one Table 3 grid cell.
func table3Spec(s Scale, ds, part, method string, n int, seed uint64) CellSpec {
	return CellSpec{Dataset: ds, Partition: part, Method: method, N: n, K: s.K, Delta: defaultDelta, Seed: seed}
}

// table3Jobs enumerates the full Table 3 grid: three datasets ×
// {PA, CE, CN} × {SmallN, LargeN} clients × four methods, in canonical
// (shard-defining) order.
func table3Jobs(s Scale, seed uint64) []CellSpec {
	var jobs []CellSpec
	for _, spec := range s.datasets() {
		for _, n := range []int{s.SmallN, s.LargeN} {
			for _, part := range PartitionNames {
				for _, m := range Methods {
					jobs = append(jobs, table3Spec(s, spec.Name, part, m, n, seed))
				}
			}
		}
	}
	return jobs
}

// renderTable3 prints the Table 3 layout: one block per (dataset, N),
// rows = methods plus impr.(a)/impr.(b). With several seeds every cell
// is mean±std of the replicates' best accuracies, and the impr rows are
// computed from the means.
func renderTable3(s Scale, seed uint64, seeds int, get ArtifactGetter) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 3: best top-1 test accuracy (%%)%s, scale=%s\n\n", seedsNote(seeds), s.Name)
	for _, spec := range s.datasets() {
		for _, n := range []int{s.SmallN, s.LargeN} {
			tab := &metrics.Table{
				Title:   fmt.Sprintf("%s, %d clients", spec.Name, n),
				Headers: append([]string{"method"}, PartitionNames...),
			}
			best := map[string]map[string]float64{} // part → method → best
			text := map[string]map[string]string{}
			for _, part := range PartitionNames {
				best[part], text[part] = map[string]float64{}, map[string]string{}
				for _, m := range Methods {
					best[part][m], text[part][m] = seedCell(get, table3Spec(s, spec.Name, part, m, n, seed), seeds)
				}
			}
			for _, m := range Methods {
				row := []string{m}
				for _, part := range PartitionNames {
					row = append(row, text[part][m])
				}
				tab.AddRow(row...)
			}
			ra := []string{"impr.(a)"}
			rb := []string{"impr.(b)"}
			for _, part := range PartitionNames {
				ia, ib := improvements(best[part])
				ra = append(ra, metrics.Pct(ia))
				rb = append(rb, metrics.Pct(ib))
			}
			tab.AddRow(ra...)
			tab.AddRow(rb...)
			b.WriteString(tab.RenderString())
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// improvements returns FedDRL's relative improvement over the best and
// over the worst of FedAvg and FedProx: impr.(a) and impr.(b) of
// Table 3.
func improvements(best map[string]float64) (a, b float64) {
	fa, fp := best["FedAvg"], best["FedProx"]
	hi, lo := fp, fa
	if fa > fp {
		hi, lo = fa, fp
	}
	return metrics.RelImprovement(best["FedDRL"], hi), metrics.RelImprovement(best["FedDRL"], lo)
}

// seedCell returns a cell's best accuracy twice: as the value derived
// rows compute with, and as the text a table prints. One seed prints
// the plain value; several print mean±std over the replicates, and the
// value is their mean.
func seedCell(get ArtifactGetter, spec CellSpec, seeds int) (float64, string) {
	if seeds <= 1 {
		v := get(spec).Best()
		return v, metrics.F(v)
	}
	vals := replicateBests(get, spec, seeds)
	mean := mathx.Mean(vals)
	return mean, metrics.MeanStd(mean, mathx.Std(vals))
}

// seedsNote is the title suffix of a seed-replicated render.
func seedsNote(seeds int) string {
	if seeds <= 1 {
		return ""
	}
	return fmt.Sprintf(", mean±std of %d seeds", seeds)
}

// replicateBests collects the best accuracies of a cell's seed
// replicates.
func replicateBests(get ArtifactGetter, spec CellSpec, seeds int) []float64 {
	vals := make([]float64, seeds)
	for r := 0; r < seeds; r++ {
		vals[r] = get(replicateSpec(spec, r)).Best()
	}
	return vals
}
