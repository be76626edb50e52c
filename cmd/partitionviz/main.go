// Command partitionviz prints Figure-4 style illustrations of the
// non-IID partitioners: one row per label, one column per client, glyph
// area proportional to sample count.
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
	// The same range checks as fedsim's, before anything is built.
	clustered := false
	for _, p := range strings.Split(*parts, ",") {
		p = strings.TrimSpace(p)
		clustered = clustered || p == "CE" || p == "CN"
	}
	for _, c := range []struct {
		bad bool
		msg string
	}{
		{*clients < 1, "-clients must be >= 1"},
		{clustered && *clients < 3, "-clients must be >= 3 for CE and CN"},
		{clustered && !(*delta > 0 && *delta < 1), "-delta must be in (0, 1) for CE and CN"},
	} {
		if c.bad {
			fmt.Fprintln(stderr, "partitionviz: "+c.msg)
			return 2
		}
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
	lpc := 2
	if spec.Classes >= 100 {
		lpc = 20
	}
	for _, p := range strings.Split(*parts, ",") {
		r := feddrl.NewRNG(*seed + 7)
		var assign *feddrl.Assignment
		switch strings.TrimSpace(p) {
		case "PA":
			assign = feddrl.Pareto(train, *clients, lpc, 1.5, r)
		case "CE":
			assign = feddrl.ClusteredEqual(train, *clients, *delta, lpc, 3, r)
		case "CN":
			assign = feddrl.ClusteredNonEqual(train, *clients, *delta, lpc, 3, 1.0, r)
		case "Equal":
			assign = feddrl.EqualShards(train, *clients, 2, r)
		case "Non-equal":
			assign = feddrl.NonEqualShards(train, *clients, 10, 6, 14, r)
		default:
			fmt.Fprintf(stderr, "unknown partition %q\n", p)
			return 2
		}
		fmt.Fprintln(stdout, feddrl.PartitionASCII(train, assign))
		st := feddrl.ComputePartitionStats(train, assign)
		fmt.Fprintf(stdout, "coverage %.0f%%  quantityCV %.3f  clusterScore %.3f\n\n",
			st.Coverage*100, st.QuantityCV, st.ClusterScore)
	}
	return 0
}
