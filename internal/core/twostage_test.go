package core

import (
	"testing"

	"feddrl/internal/mathx"
)

// lineEnv rewards pushing the first action mean toward a target value.
type lineEnv struct {
	k      int
	target float64
}

func (e *lineEnv) Reset() []float64 { return make([]float64, 3*e.k) }
func (e *lineEnv) Step(action []float64) ([]float64, float64, bool) {
	d := action[0] - e.target
	return make([]float64, 3*e.k), -d * d, true
}

func TestTrainTwoStageRuns(t *testing.T) {
	cfg := smallConfig(2)
	cfg.UpdatesPerRound = 2
	res := TrainTwoStage(cfg, func(w int, seed uint64) Env {
		return &lineEnv{k: 2, target: 0.5}
	}, 2, 30, 10)
	if res.Agent == nil {
		t.Fatal("no main agent returned")
	}
	if len(res.WorkerExperiences) != 2 {
		t.Fatalf("worker count %d", len(res.WorkerExperiences))
	}
	for w, n := range res.WorkerExperiences {
		if n == 0 {
			t.Fatalf("worker %d collected no experience", w)
		}
	}
	// Centralized buffer received the gathered experience.
	if res.Agent.Buffer.Len() == 0 {
		t.Fatal("main buffer empty after merge")
	}
	if res.OfflineUpdates != 10*cfg.UpdatesPerRound {
		t.Fatalf("offline updates %d", res.OfflineUpdates)
	}
	if !mathx.AllFinite(res.Agent.policy.ParamVector()) {
		t.Fatal("two-stage training produced non-finite policy")
	}
}

func TestTwoStageWorkersDiverge(t *testing.T) {
	// Workers start identical in architecture but different seeds; their
	// experience contents must differ ("they will evolve into distinct
	// individuals", §3.4.2).
	cfg := smallConfig(2)
	res := TrainTwoStage(cfg, func(w int, seed uint64) Env {
		return &lineEnv{k: 2, target: float64(w)}
	}, 2, 20, 0)
	if res.Agent.Buffer.Len() < 20 {
		t.Fatalf("merged buffer too small: %d", res.Agent.Buffer.Len())
	}
}

func TestTwoStageDeterministic(t *testing.T) {
	cfg := smallConfig(2)
	run := func() []float64 {
		res := TrainTwoStage(cfg, func(w int, seed uint64) Env {
			return &lineEnv{k: 2, target: 0.3}
		}, 2, 15, 5)
		return res.Agent.policy.ParamVector()
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("two-stage training is not deterministic")
		}
	}
}

func TestTwoStagePanics(t *testing.T) {
	cfg := smallConfig(2)
	defer func() {
		if recover() == nil {
			t.Fatal("zero workers did not panic")
		}
	}()
	TrainTwoStage(cfg, func(w int, seed uint64) Env { return &lineEnv{k: 2} }, 0, 10, 1)
}
