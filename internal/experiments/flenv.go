package experiments

import (
	"feddrl/internal/core"
	"feddrl/internal/dataset"
	"feddrl/internal/fl"
	"feddrl/internal/mathx"
	"feddrl/internal/rng"
)

// flEnv adapts a (small) federated-learning setup to the core.Env
// interface so the two-stage trainer's online workers (§3.4.2) can
// interact with real FL dynamics: the state is the 3K client-loss vector,
// the action's softmaxed means become the aggregation weights, and the
// reward is Eq. 7 on the next round's client losses.
type flEnv struct {
	s       Scale
	spec    dataset.Spec
	drlCfg  core.Config
	seed    uint64
	episode int // rounds per episode

	train, test *dataset.Dataset
	clients     []*fl.Client
	global      []float64
	updates     []fl.Update
	round       int
}

// newFLEnv builds an environment over a CE-partitioned dataset with
// SmallN clients and K participants (= all clients for simplicity:
// workers need the state layout to stay aligned across rounds).
func newFLEnv(s Scale, spec dataset.Spec, drlCfg core.Config, seed uint64, roundsPerEpisode int) *flEnv {
	train, test := dataset.Synthesize(spec, seed)
	return &flEnv{
		s: s, spec: spec, drlCfg: drlCfg, seed: seed, episode: roundsPerEpisode,
		train: train, test: test,
	}
}

// Reset rebuilds the federation and runs one bootstrap round with uniform
// weights to obtain the initial state.
func (e *flEnv) Reset() []float64 {
	k := e.drlCfg.K
	assign := buildPartition("CE", e.train, k, defaultDelta, rng.New(e.seed+21))
	factory := e.s.factoryFor(e.spec)
	// Full participation, so every client stays live each round — the
	// eager fleet is the right shape here, and its shards are zero-copy
	// views of e.train rather than per-client copies.
	e.clients = fl.BuildClients(e.train, assign.ClientIndices, factory, e.seed+22)
	e.global = factory(e.seed + 23).ParamVector()
	e.round = 0
	e.runClients()
	return e.state()
}

func (e *flEnv) runClients() {
	lc := fl.LocalConfig{Epochs: e.s.Epochs, Batch: e.s.Batch, LR: e.s.LR}
	e.updates = make([]fl.Update, len(e.clients))
	for i, c := range e.clients {
		e.updates[i] = c.Run(e.global, lc)
	}
}

func (e *flEnv) state() []float64 {
	k := e.drlCfg.K
	lb, la := make([]float64, k), make([]float64, k)
	ns := make([]int, k)
	for i, u := range e.updates {
		lb[i], la[i], ns[i] = u.LossBefore, u.LossAfter, u.N
	}
	return core.BuildState(e.drlCfg, lb, la, ns)
}

// Step aggregates with softmax(action means), trains the next round and
// returns the Eq. 7 reward of the resulting global model.
func (e *flEnv) Step(action []float64) ([]float64, float64, bool) {
	k := e.drlCfg.K
	alpha := mathx.Softmax(action[:k])
	e.global = fl.WeightedMerge{}.Merge(e.updates, alpha, nil)
	e.round++
	e.runClients()
	lb := make([]float64, k)
	for i, u := range e.updates {
		lb[i] = u.LossBefore
	}
	r := core.RewardOf(e.drlCfg, lb)
	return e.state(), r, e.round >= e.episode
}
