// Command partitionviz prints Figure-4 style illustrations of the
// non-IID partitioners: one row per label, one column per client, glyph
// area proportional to sample count. Each partition is built by
// feddrl.PartitionByName with the paper's constants, and all are built
// before any is printed: a bad name, -clients or -delta prints one line
// to stderr, nothing to stdout, and exits 2.
//
// Example:
//
//	partitionviz -dataset mnist -clients 10 -partitions PA,CE,CN -delta 0.6
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"feddrl"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entrypoint: flags in, exit code out.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("partitionviz", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dsName := fs.String("dataset", "mnist", "dataset: mnist, fashion or cifar100")
	clients := fs.Int("clients", 10, "number of clients")
	parts := fs.String("partitions", "PA,CE,CN", "comma-separated partition list")
	delta := fs.Float64("delta", 0.6, "cluster-skew level for CE/CN")
	seed := fs.Uint64("seed", 1, "seed")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	var spec feddrl.DataSpec
	switch *dsName {
	case "mnist":
		spec = feddrl.MNISTSim()
	case "fashion":
		spec = feddrl.FashionSim()
	case "cifar100":
		spec = feddrl.CIFAR100Sim()
	default:
		fmt.Fprintf(stderr, "unknown dataset %q\n", *dsName)
		return 2
	}
	train, _ := feddrl.Synthesize(spec.Scaled(0.3), *seed)
	// Every partition is built before any is printed, so a bad name,
	// -clients or -delta prints nothing but its one-line error.
	var assigns []*feddrl.Assignment
	for _, p := range strings.Split(*parts, ",") {
		assign, err := feddrl.PartitionByName(strings.TrimSpace(p), train, *clients, *delta, feddrl.NewRNG(*seed+7))
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		assigns = append(assigns, assign)
	}
	for _, assign := range assigns {
		fmt.Fprintln(stdout, feddrl.PartitionASCII(train, assign))
		st := feddrl.ComputePartitionStats(train, assign)
		fmt.Fprintf(stdout, "coverage %.0f%%  quantityCV %.3f  clusterScore %.3f\n\n",
			st.Coverage*100, st.QuantityCV, st.ClusterScore)
	}
	return 0
}
