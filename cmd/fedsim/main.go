// Command fedsim runs one federated-learning experiment cell from flags:
// a dataset, a non-IID partition, a method, and federation sizes. It
// prints the per-round accuracy timeline and a summary. The partition
// is built by feddrl.PartitionByName with the paper's constants, and a
// bad flag value (a partition's -clients or -delta included) prints one
// line and exits 2.
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
	"math"
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
	dsName := fs.String("dataset", "mnist", "dataset: mnist, fashion or cifar100")
	partName := fs.String("partition", "CE", "partition: PA, CE, CN, Equal or Non-equal")
	method := fs.String("method", "FedDRL", "method: SingleSet, FedAvg, FedProx or FedDRL")
	clients := fs.Int("clients", 10, "number of clients N")
	k := fs.Int("k", 10, "participating clients per round K")
	rounds := fs.Int("rounds", 20, "communication rounds")
	delta := fs.Float64("delta", 0.6, "cluster-skew level (CE/CN)")
	dataScale := fs.Float64("datascale", 0.3, "dataset size multiplier")
	epochs := fs.Int("epochs", 3, "local epochs E")
	lr := fs.Float64("lr", 0.03, "local learning rate")
	exploreStd := fs.Float64("explorestd", 0.05, "FedDRL exploration noise scale")
	exploreDecay := fs.Float64("exploredecay", 0.99, "FedDRL exploration decay per action")
	workers := fs.Int("workers", 0, "work-stealing engine lanes shared by client training, evaluation and the weight merge (0 = sequential, -1 = GOMAXPROCS); results are identical at any width")
	precName := fs.String("precision", "f64", "federated-state width: f64 (full, the default) or f32 (half-width uploads and merge; local training stays f64; SingleSet ignores it)")
	attackName := fs.String("attack", "none", "Byzantine fault model corrupting a seeded identity-stable client fraction: none, signflip, gauss, replace, collude or labelflip")
	attackFrac := fs.Float64("attack-frac", 0.2, "malicious client fraction for -attack (identity-stable across rounds)")
	mergerName := fs.String("merger", "", "server merge rule: weighted (the default impact-factor merge), median, trimmed or krum")
	seed := fs.Uint64("seed", 1, "run seed")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	// Range checks come before anything is built, and each is written
	// so that NaN fails it. PartitionByName checks -clients and -delta.
	for _, c := range []struct {
		bad bool
		msg string
	}{
		{*k < 1, "-k must be >= 1"},
		{*rounds < 1, "-rounds must be >= 1"},
		{*epochs < 1, "-epochs must be >= 1"},
		{!(*dataScale > 0 && *dataScale <= math.MaxFloat64), "-datascale must be finite and > 0"},
		{!(*lr > 0 && *lr <= math.MaxFloat64), "-lr must be finite and > 0"},
		{!(*exploreStd >= 0 && *exploreStd <= math.MaxFloat64), "-explorestd must be finite and >= 0"},
		{!(*exploreDecay > 0 && *exploreDecay <= 1), "-exploredecay must be in (0, 1]"},
	} {
		if c.bad {
			fmt.Fprintln(stderr, "fedsim: "+c.msg)
			return 2
		}
	}

	prec, err := feddrl.ParsePrecision(*precName)
	if err != nil {
		fmt.Fprintf(stderr, "%v\n", err)
		return 2
	}
	attack, err := feddrl.ParseAttack(*attackName, *attackFrac)
	if err != nil {
		fmt.Fprintf(stderr, "%v\n", err)
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
	// Scaled converts the scaled per-class counts to int.
	if !(*dataScale*float64(max(spec.TrainPerClass, spec.TestPerClass)) < math.MaxInt64) {
		fmt.Fprintf(stderr, "fedsim: -datascale %v scales %s past an int's range of samples per class\n", *dataScale, spec.Name)
		return 2
	}
	spec = spec.Scaled(*dataScale)
	train, test := feddrl.Synthesize(spec, *seed)

	assign, err := feddrl.PartitionByName(*partName, train, *clients, *delta, feddrl.NewRNG(*seed+1))
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	factory := feddrl.MLPFactory(train.Dim, []int{48}, train.NumClasses)
	kk := *k
	if kk > *clients {
		kk = *clients
	}
	engineWorkers := *workers
	if engineWorkers < 0 {
		engineWorkers = runtime.GOMAXPROCS(0)
	}
	// Krum sizes its tolerated-fault count f from the malicious
	// fraction, so the merger parses once K is clamped.
	merger, err := feddrl.ParseMerger(*mergerName, *attackFrac, kk)
	if err != nil {
		fmt.Fprintf(stderr, "%v\n", err)
		return 2
	}
	cfg := feddrl.RunConfig{
		Rounds:    *rounds,
		K:         kk,
		Local:     feddrl.LocalConfig{Epochs: *epochs, Batch: 10, LR: *lr},
		Factory:   factory,
		Seed:      *seed + 2,
		Workers:   engineWorkers,
		Precision: prec,
		Attack:    attack,
		Merger:    merger,
	}

	var res *feddrl.Result
	switch *method {
	case "SingleSet":
		res = feddrl.SingleSet(cfg, train, test)
	case "FedAvg":
		res = feddrl.Run(cfg, feddrl.BuildClients(train, assign.ClientIndices, factory, *seed+3), test, feddrl.FedAvg{})
	case "FedProx":
		cfg.Local.ProxMu = 0.01
		res = feddrl.Run(cfg, feddrl.BuildClients(train, assign.ClientIndices, factory, *seed+3), test, feddrl.FedProx{})
	case "FedDRL":
		drlCfg := feddrl.DefaultAgentConfig(kk)
		drlCfg.Hidden = 64
		drlCfg.BatchSize = 32
		drlCfg.WarmupExperiences = 8
		drlCfg.UpdatesPerRound = 4
		drlCfg.ExploreStd = *exploreStd
		drlCfg.ExploreDecay = *exploreDecay
		drlCfg.Seed = *seed + 4
		res = feddrl.Run(cfg, feddrl.BuildClients(train, assign.ClientIndices, factory, *seed+3), test, feddrl.NewFedDRL(feddrl.NewAgent(drlCfg)))
	default:
		fmt.Fprintf(stderr, "unknown method %q\n", *method)
		return 2
	}

	fmt.Fprintf(stdout, "%s on %s/%s, N=%d K=%d rounds=%d\n", res.Method, spec.Name, *partName, *clients, kk, *rounds)
	fmt.Fprintln(stdout, strings.Repeat("-", 48))
	for i, acc := range res.Accuracy {
		fmt.Fprintf(stdout, "round %3d  acc %6.2f%%\n", res.AccRounds[i], acc)
	}
	fmt.Fprintln(stdout, strings.Repeat("-", 48))
	fmt.Fprintf(stdout, "best %.2f%%  final %.2f%%  params %d\n", res.Best(), res.Final(), res.NumParam)
	fmt.Fprintf(stdout, "mean decision time %v, mean aggregation time %v\n", res.MeanDecisionTime(), res.MeanAggTime())
	return 0
}
