package feddrl

import (
	"math"
	"path/filepath"
	"testing"
)

// TestAgentCheckpointPublic saves and restores a trained agent through
// the façade, then verifies the restored policy is usable in a run.
func TestAgentCheckpointPublic(t *testing.T) {
	cfg := DefaultAgentConfig(4)
	cfg.Hidden = 8
	cfg.BatchSize = 4
	cfg.WarmupExperiences = 2
	cfg.UpdatesPerRound = 1
	agent := NewAgent(cfg)
	path := filepath.Join(t.TempDir(), "agent.ckpt")
	if err := agent.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadAgentFile(cfg, path)
	if err != nil {
		t.Fatal(err)
	}
	spec := MNISTSim().Scaled(0.05)
	train, test := Synthesize(spec, 6)
	assign := ClusteredEqual(train, 4, 0.5, 2, 2, NewRNG(7))
	factory := MLPFactory(train.Dim, []int{8}, train.NumClasses)
	runCfg := RunConfig{
		Rounds:  2,
		K:       4,
		Local:   LocalConfig{Epochs: 1, Batch: 10, LR: 0.05},
		Factory: factory,
		Seed:    8,
	}
	res := Run(runCfg, BuildClients(train, assign.ClientIndices, factory, 8), test, NewFedDRL(restored))
	if len(res.Accuracy) == 0 {
		t.Fatal("restored agent run produced no evaluations")
	}
}

// TestCommAccountingPublic checks the §5.3 overhead claim end to end.
func TestCommAccountingPublic(t *testing.T) {
	cfg := DefaultAgentConfig(10)
	cfg.Hidden = 8
	drl := NewFedDRL(NewAgent(cfg))
	c := CommPerRoundP(drl, 10, 50000, F64)
	if c.OverheadBytes != 160 {
		t.Fatalf("overhead %d", c.OverheadBytes)
	}
	if f := c.OverheadFraction(); f > 0.001 {
		t.Fatalf("overhead fraction %v should be negligible", f)
	}
	base := CommPerRoundP(FedAvg{}, 10, 50000, F64)
	if base.UplinkBytes+c.OverheadBytes != c.UplinkBytes {
		t.Fatal("FedDRL uplink should be FedAvg's plus the loss metadata")
	}
}

// TestScaleRoundsOverride mirrors cmd/tables' -rounds flag behaviour.
func TestScaleRoundsOverride(t *testing.T) {
	s, err := ScaleByName("ci")
	if err != nil {
		t.Fatal(err)
	}
	s.Rounds = 3
	s.DataScale = 0.06
	s.SmallN, s.LargeN, s.K, s.Epochs = 4, 6, 4, 1
	out, err := RunExperimentCached("table2", s, 1, nil)
	if err != nil || out == "" {
		t.Fatalf("override run failed: %v", err)
	}
}

// TestCSVExportPublic writes figure series through the façade, from the
// artifact set the text render computed.
func TestCSVExportPublic(t *testing.T) {
	s := CIScale()
	s.DataScale = 0.06
	s.Rounds = 3
	s.SmallN, s.LargeN, s.K, s.Epochs = 4, 6, 4, 1
	s.KSweep = []int{2, 4}
	_, set, err := RunExperimentSeedsCached("figure7", s, 1, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	paths, err := ExportExperimentCSV(s, set, dir)
	if err != nil || len(paths) != 1 {
		t.Fatalf("csv export failed: %v %v", err, paths)
	}
}

// TestEvalLossAccBounds sanity-checks the shared evaluation helper.
func TestEvalLossAccBounds(t *testing.T) {
	spec := MNISTSim().Scaled(0.05)
	_, test := Synthesize(spec, 9)
	m := MLPFactory(test.Dim, []int{8}, test.NumClasses)(1)
	loss, acc := EvalLossAcc(m, test)
	if loss <= 0 || math.IsNaN(loss) || acc < 0 || acc > 1 {
		t.Fatalf("eval out of bounds: %v %v", loss, acc)
	}
	// Untrained 10-class model ≈ ln(10) loss.
	if loss < 1 || loss > 5 {
		t.Fatalf("untrained loss %v implausible", loss)
	}
}
