package core

import (
	"sync"
)

// Env abstracts the environment the agent interacts with: for FedDRL it
// is the federated-learning loop itself (state = client losses and sample
// counts, action = impact factors, reward = Eq. 7 on the next round's
// losses). Tests use lightweight synthetic environments.
type Env interface {
	// Reset starts an episode and returns the initial state.
	Reset() []float64
	// Step applies an action and returns the next state, the reward and
	// whether the episode ended.
	Step(action []float64) (next []float64, reward float64, done bool)
}

// TwoStageResult reports the outcome of TrainTwoStage.
type TwoStageResult struct {
	Agent             *Agent
	WorkerExperiences []int
	OfflineUpdates    int
}

// TrainTwoStage implements the two-stage training strategy of §3.4.2
// (Fig. 3b).
//
// Stage 1 (online): `workers` identical agents (differing only in seed)
// interact with independent environments in parallel goroutines for
// `stepsPerWorker` transitions each, training online and filling their
// own buffers. Although initially identical, the workers evolve into
// distinct individuals, so their experiences differ.
//
// Stage 2 (offline): the workers' buffers are merged into the main
// agent's centralized buffer and the main agent is trained offline for
// `offlineRounds` calls of Algorithm 1 without touching an environment.
//
// The main agent's networks are initialized from the first worker (the
// workers have already learned online; starting offline training from
// scratch would discard stage 1's optimization, and the paper trains the
// main agent *using* the gathered experience to boost, not replace, the
// online phase).
func TrainTwoStage(cfg Config, makeEnv func(worker int, seed uint64) Env, workers, stepsPerWorker, offlineRounds int) TwoStageResult {
	if err := cfg.Check(); err != nil {
		panic(err)
	}
	if workers <= 0 || stepsPerWorker <= 0 || offlineRounds < 0 {
		panic("core: TrainTwoStage with non-positive sizes")
	}

	agents := make([]*Agent, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wcfg := cfg
		wcfg.Seed = cfg.Seed + uint64(w)*0x9e37
		agents[w] = NewAgent(wcfg)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			runWorker(agents[w], makeEnv(w, agents[w].cfg.Seed), stepsPerWorker)
		}(w)
	}
	wg.Wait()

	mainCfg := cfg
	mainCfg.Seed = cfg.Seed + 0xfeedd
	main := NewAgent(mainCfg)
	main.CopyPolicyFrom(agents[0])
	workerBufs := make([]int, workers)
	for w, ag := range agents {
		workerBufs[w] = ag.Buffer.Len()
	}
	mergeBuffers(main, agents)
	for i := 0; i < offlineRounds; i++ {
		main.Train()
	}
	return TwoStageResult{Agent: main, WorkerExperiences: workerBufs, OfflineUpdates: offlineRounds * cfg.UpdatesPerRound}
}

// runWorker drives one online agent through its environment.
func runWorker(a *Agent, env Env, steps int) {
	s := env.Reset()
	for t := 0; t < steps; t++ {
		act := a.Act(s, true)
		s2, r, done := env.Step(act)
		if done {
			a.ObserveDone(s, act, r, s2)
			s = env.Reset()
		} else {
			a.Observe(s, act, r, s2)
			s = s2
		}
		a.Train()
	}
}

// mergeBuffers gathers the workers' experience into the main agent's
// centralized buffer (Fig. 3b "Gathering").
func mergeBuffers(main *Agent, workers []*Agent) {
	for _, w := range workers {
		main.Buffer.Merge(w.Buffer)
	}
}
