// Command fedsim runs one grid cell of the paper's evaluation from
// flags: a dataset, a non-IID partition, a method and federation sizes.
// It runs the cell through the grids' cell runner
// (feddrl.RunExperimentCell) at the medium scale's model and agent
// sizes (feddrl.MediumScale) with its flags' overrides, and prints the
// per-round accuracy timeline and a summary. Its numbers are therefore
// those of the matching grid cell; they differ from earlier versions of
// fedsim, which seeded and built the run its own way.
//
// The flags map onto the scale and the cell one to one: -datascale,
// -rounds, -epochs, -lr, -explorestd, -exploredecay, -precision and
// -workers (-1 meaning GOMAXPROCS) set the Scale's DataScale, Rounds,
// Epochs, LR, DRLExploreStd, DRLExploreDecay, Precision and Workers,
// and EvalEvery is 1. -dataset (with "-sim" appended), -partition,
// -method, -clients, -k, -delta, -seed, -attack, -attack-frac and
// -merger set the CellSpec's Dataset, Partition, Method, N, K, Delta,
// Seed, Attack, AttackFrac and Merger.
//
// As in the grids, every client participates when -clients is at most
// the scale's SmallN (10), and K is clamped to the clients whose shard
// holds data; the header prints the K the run used. A bad flag value
// prints one line and exits 2.
//
// Example:
//
//	fedsim -dataset mnist -partition CE -method FedDRL -clients 10 -k 10 -rounds 30 -workers 4
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"

	"feddrl"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entrypoint: flags in, exit code out.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fedsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	s := feddrl.MediumScale()
	s.EvalEvery = 1
	var cell feddrl.ExperimentCellSpec
	dsName := fs.String("dataset", "mnist", "dataset: mnist, fashion or cifar100")
	fs.StringVar(&cell.Partition, "partition", "CE", "partition: PA, CE, CN, Equal or Non-equal")
	fs.StringVar(&cell.Method, "method", "FedDRL", "method: SingleSet, FedAvg, FedProx or FedDRL; a federated method may take a +async or +stale suffix")
	fs.IntVar(&cell.N, "clients", 10, "number of clients N")
	fs.IntVar(&cell.K, "k", 10, "participating clients per round K (every client at N <= 10)")
	fs.IntVar(&s.Rounds, "rounds", 20, "communication rounds")
	fs.Float64Var(&cell.Delta, "delta", 0.6, "cluster-skew level (CE/CN)")
	fs.Float64Var(&s.DataScale, "datascale", 0.3, "dataset size multiplier")
	fs.IntVar(&s.Epochs, "epochs", 3, "local epochs E")
	fs.Float64Var(&s.LR, "lr", 0.03, "local learning rate")
	fs.Float64Var(&s.DRLExploreStd, "explorestd", 0.05, "FedDRL exploration noise scale")
	fs.Float64Var(&s.DRLExploreDecay, "exploredecay", 0.99, "FedDRL exploration decay per action")
	fs.IntVar(&s.Workers, "workers", 0, "work-stealing engine lanes shared by client training, evaluation and the weight merge (0 = sequential, -1 = GOMAXPROCS); results are identical at any width")
	fs.StringVar(&s.Precision, "precision", "f64", "federated-state width: f64 (full, the default) or f32 (half-width uploads and merge; local training stays f64; SingleSet ignores it)")
	fs.StringVar(&cell.Attack, "attack", "none", "Byzantine fault model corrupting a seeded identity-stable client fraction: none, signflip, gauss, replace, collude or labelflip")
	fs.Float64Var(&cell.AttackFrac, "attack-frac", 0.2, "malicious client fraction for -attack (identity-stable across rounds)")
	fs.StringVar(&cell.Merger, "merger", "", "server merge rule: weighted (the default impact-factor merge), median, trimmed or krum")
	fs.Uint64Var(&cell.Seed, "seed", 1, "run seed")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	cell.Dataset = *dsName + "-sim"
	if s.Workers < 0 {
		s.Workers = runtime.GOMAXPROCS(0)
	}
	res, err := feddrl.RunExperimentCell(s, cell)
	if err != nil {
		fmt.Fprintln(stderr, "fedsim:", err)
		return 2
	}

	fmt.Fprintf(stdout, "%s on %s/%s, N=%d K=%d rounds=%d\n", cell.Method, cell.Dataset, cell.Partition, cell.N, res.K, s.Rounds)
	fmt.Fprintln(stdout, strings.Repeat("-", 48))
	for i, acc := range res.Accuracy {
		fmt.Fprintf(stdout, "round %3d  acc %6.2f%%\n", res.AccRounds[i], acc)
	}
	fmt.Fprintln(stdout, strings.Repeat("-", 48))
	fmt.Fprintf(stdout, "best %.2f%%  final %.2f%%  params %d\n", res.Best(), res.Final(), res.NumParam)
	fmt.Fprintf(stdout, "mean decision time %v, mean aggregation time %v\n", res.MeanDecisionTime(), res.MeanAggTime())
	return 0
}
