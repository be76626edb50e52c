// Command fedsim runs one federated-learning experiment cell from flags:
// a dataset, a non-IID partition, a method, and federation sizes. It
// prints the per-round accuracy timeline and a summary.
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
	// so that NaN fails it. CE and CN put one client in each of their
	// three groups.
	clustered := *partName == "CE" || *partName == "CN"
	for _, c := range []struct {
		bad bool
		msg string
	}{
		{*clients < 1, "-clients must be >= 1"},
		{clustered && *clients < 3, "-clients must be >= 3 for CE and CN"},
		{*k < 1, "-k must be >= 1"},
		{*rounds < 1, "-rounds must be >= 1"},
		{*epochs < 1, "-epochs must be >= 1"},
		{!(*dataScale > 0), "-datascale must be > 0"},
		{!(*lr > 0), "-lr must be > 0"},
		{clustered && !(*delta > 0 && *delta < 1), "-delta must be in (0, 1) for CE and CN"},
		{!(*exploreStd >= 0), "-explorestd must be >= 0"},
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
	spec = spec.Scaled(*dataScale)
	train, test := feddrl.Synthesize(spec, *seed)

	lpc := 2
	if spec.Classes >= 100 {
		lpc = 20
	}
	r := feddrl.NewRNG(*seed + 1)
	var assign *feddrl.Assignment
	switch *partName {
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
		fmt.Fprintf(stderr, "unknown partition %q\n", *partName)
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
