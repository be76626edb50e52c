package main

import (
	"bytes"
	"fmt"
	"regexp"
	"strings"
	"testing"

	"feddrl"
)

// runArgs invokes the CLI entrypoint and returns stdout.
func runArgs(t *testing.T, args ...string) string {
	t.Helper()
	var out, errOut bytes.Buffer
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("run(%v) exited %d: %s", args, code, errOut.String())
	}
	return out.String()
}

// tiny holds the flags that make a run finish in well under a second.
var tiny = []string{"-datascale", "0.05", "-rounds", "2", "-clients", "4", "-k", "2", "-epochs", "1"}

func TestFedsimSmoke(t *testing.T) {
	for _, method := range []string{"SingleSet", "FedAvg", "FedProx", "FedDRL"} {
		out := runArgs(t, append([]string{"-method", method}, tiny...)...)
		if !strings.Contains(out, "best ") || !strings.Contains(out, "rounds=2") {
			t.Fatalf("%s: unexpected output:\n%s", method, out)
		}
	}
}

// TestFedsimWorkersDeterminism checks the -workers flag end to end: the
// printed report must be byte-identical at any engine width.
func TestFedsimWorkersDeterminism(t *testing.T) {
	args := append([]string{"-method", "FedAvg"}, tiny...)
	want := runArgs(t, append(args, "-workers", "0")...)
	for _, w := range []string{"2", "4", "-1"} {
		got := runArgs(t, append(args, "-workers", w)...)
		// Timing lines legitimately differ; compare everything above them.
		trim := func(s string) string { return s[:strings.LastIndex(s, "mean decision time")] }
		if trim(got) != trim(want) {
			t.Fatalf("-workers %s output differs:\n%s\nvs\n%s", w, got, want)
		}
	}
}

// TestFedsimPrecisionFlag runs every method under -precision f32: the
// run must complete, and (for the federated methods) the report must be
// byte-identical at any engine width — the f32 determinism contract
// surfaced end to end through the CLI.
func TestFedsimPrecisionFlag(t *testing.T) {
	for _, method := range []string{"SingleSet", "FedAvg", "FedDRL"} {
		out := runArgs(t, append([]string{"-method", method, "-precision", "f32"}, tiny...)...)
		if !strings.Contains(out, "best ") {
			t.Fatalf("%s -precision f32: unexpected output:\n%s", method, out)
		}
	}
	args := append([]string{"-method", "FedAvg", "-precision", "f32"}, tiny...)
	trim := func(s string) string { return s[:strings.LastIndex(s, "mean decision time")] }
	want := runArgs(t, append(args, "-workers", "0")...)
	for _, w := range []string{"2", "-1"} {
		got := runArgs(t, append(args, "-workers", w)...)
		if trim(got) != trim(want) {
			t.Fatalf("-precision f32 -workers %s output differs:\n%s\nvs\n%s", w, got, want)
		}
	}
	// "-precision f64" is the spelled-out default: identical output.
	base := append([]string{"-method", "FedAvg"}, tiny...)
	if got := runArgs(t, append(base, "-precision", "f64")...); trim(got) != trim(runArgs(t, base...)) {
		t.Fatal("-precision f64 differs from the default run")
	}
}

// TestFedsimBadFlags: every bad flag value prints one line and exits 2
// before anything is built, NaN included.
func TestFedsimBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-dataset", "nope"},
		{"-partition", "nope"},
		{"-method", "nope"},
		{"-precision", "f16"},
		{"-attack-frac", "NaN", "-method", "FedAvg", "-datascale", "0.1", "-rounds", "1", "-epochs", "1"},
		{"-delta", "1.5"},
		{"-delta", "NaN"},
		{"-partition", "CN", "-delta", "0"},
		{"-clients", "0", "-partition", "PA"},
		{"-clients", "2"},
		{"-k", "0"},
		{"-rounds", "0"},
		{"-epochs", "0"},
		{"-lr", "-1"},
		{"-lr", "NaN"},
		{"-lr", "Inf", "-method", "FedAvg", "-datascale", "0.05", "-rounds", "1", "-epochs", "1", "-clients", "6", "-k", "3"},
		{"-datascale", "NaN"},
		{"-datascale", "0"},
		{"-datascale", "Inf"},
		{"-datascale", "1e300"},
		{"-explorestd", "NaN"},
		{"-explorestd", "Inf", "-method", "FedDRL", "-datascale", "0.05", "-rounds", "2", "-epochs", "1", "-clients", "6", "-k", "3"},
		{"-exploredecay", "2"},
		{"-exploredecay", "NaN"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 {
			t.Fatalf("run(%v) exited %d, want 2", args, code)
		}
		if msg := errOut.String(); strings.Count(msg, "\n") != 1 {
			t.Fatalf("run(%v) printed %q, want one line", args, msg)
		}
	}
}

// TestFedsimShortFleet: at 100 clients the Equal partition leaves fewer
// clients with data than K 100. The run must size FedDRL's agent to the
// clients it can select, finish, and print the K it ran.
func TestFedsimShortFleet(t *testing.T) {
	out := runArgs(t, "-method", "FedDRL", "-partition", "Equal", "-clients", "100", "-k", "100", "-rounds", "1", "-epochs", "1", "-datascale", "0.05")
	m := regexp.MustCompile(`N=100 K=(\d+) `).FindStringSubmatch(out)
	if m == nil || len(m[1]) > 2 {
		t.Fatalf("header does not print a K below 100:\n%s", out)
	}
}

// TestFedsimRunsGridCell: a fedsim run is the grid cell its flags name.
// The test builds the scale and the cell from the mapping fedsim
// documents, and the run's per-round accuracy lines must equal the
// Accuracy series RunExperimentCell returns for them. N = 12 is above
// the scale's SmallN, so K 6 is honoured.
func TestFedsimRunsGridCell(t *testing.T) {
	out := runArgs(t, "-dataset", "fashion", "-partition", "CN", "-method", "FedDRL", "-clients", "12", "-k", "6", "-rounds", "3", "-datascale", "0.1", "-epochs", "1")
	s := feddrl.MediumScale()
	s.DataScale, s.Rounds, s.Epochs, s.LR = 0.1, 3, 1, 0.03
	s.DRLExploreStd, s.DRLExploreDecay, s.Precision, s.Workers, s.EvalEvery = 0.05, 0.99, "f64", 0, 1
	cell := feddrl.ExperimentCellSpec{Dataset: "fashion-sim", Partition: "CN", Method: "FedDRL", N: 12, K: 6, Delta: 0.6, Seed: 1, Attack: "none", AttackFrac: 0.2}
	res, err := feddrl.RunExperimentCell(s, cell)
	if err != nil {
		t.Fatal(err)
	}
	var want, got strings.Builder
	for i, acc := range res.Accuracy {
		fmt.Fprintf(&want, "round %3d  acc %6.2f%%\n", res.AccRounds[i], acc)
	}
	for _, line := range strings.SplitAfter(out, "\n") {
		if strings.HasPrefix(line, "round ") {
			got.WriteString(line)
		}
	}
	if res.K != 6 || !strings.Contains(out, "N=12 K=6 rounds=3") || got.String() != want.String() {
		t.Fatalf("fedsim printed\n%s\nwant K=%d and the accuracy lines\n%s", out, res.K, want.String())
	}
}
