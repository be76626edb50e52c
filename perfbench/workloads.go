package main

import (
	"fmt"
	"sort"

	"feddrl/internal/core"
	"feddrl/internal/dataset"
	"feddrl/internal/experiments"
	"feddrl/internal/fl"
	"feddrl/internal/nn"
	"feddrl/internal/rng"
)

// workload is one benchmark input. Exactly one of fl and grid is set.
type workload struct {
	name string
	// why records what the workload stresses and why it was chosen.
	why  string
	fl   *flWorkload
	grid *gridWorkload
}

// flWorkload is one federated run driven through the public fl API.
type flWorkload struct {
	data dataset.Spec
	// clients is the number of client identities. cyclicPer > 0 stripes
	// them over the training set in shards of that size
	// (fl.CyclicPartition); otherwise the CE cluster-skew partitioner
	// assigns each client labels classes out of its group's block, with
	// non-IID level delta, and every client keeps quota samples of each.
	clients   int
	cyclicPer int
	delta     float64
	labels    int
	quota     int
	// cnn selects the paper's simple CNN; otherwise an MLP with hidden.
	cnn    bool
	hidden []int
	// engine is "eager" (fl.Run over a built fleet), "virtual"
	// (fl.RunVirtual over a ClientPool) or "async" (fl.RunAsync).
	engine    string
	k         int // clients dispatched per round
	local     fl.LocalConfig
	rounds    int
	evalEvery int
	prec      fl.Precision
	attack    fl.AttackModel
	merger    fl.Merger // nil: the default weighted merge
	async     asyncSetup
	// agent sizes FedDRL's DDPG agent; its K is the merged cohort.
	agent core.Config
}

// asyncSetup is the arrival trace and staleness policy of an async run.
type asyncSetup struct {
	trace fl.TraceArrivals
	decay float64
	every int
}

// runSeeds are the per-layer seeds derived from one workload seed.
type runSeeds struct {
	data, partition, clients, run, agent, attack, trace, arrival, grid uint64
}

func deriveSeeds(seed uint64) runSeeds {
	m := func(tag uint64) uint64 { return rng.MixSeed(seed, tag) }
	return runSeeds{
		data: m(1), partition: m(2), clients: m(3), run: m(4), agent: m(5),
		attack: m(6), trace: m(7), arrival: m(8), grid: m(9),
	}
}

func (w *flWorkload) factory() nn.Factory {
	sh, classes := w.data.Shape, w.data.Classes
	if w.cnn {
		return func(seed uint64) *nn.Network {
			return nn.NewSimpleCNN(rng.New(seed), sh.C, sh.H, sh.W, classes)
		}
	}
	hidden := w.hidden
	return func(seed uint64) *nn.Network {
		return nn.NewMLP(rng.New(seed), sh.Len(), hidden, classes)
	}
}

// batch is the local minibatch size a client actually trains with.
func (w *flWorkload) batch() int {
	if w.cyclicPer > 0 && w.cyclicPer < w.local.Batch {
		return w.cyclicPer
	}
	return w.local.Batch
}

// lightAgent is the Table 1 agent (depth, learning rates, warm-up) at
// half the width and a quarter of the replay work per round, sized to k
// merged updates and with the replay buffer capped like the experiment
// grids cap it. At full width its updates would cost more than a
// round's local training, and neither workload would stay bound by the
// layer it is meant to stress.
func lightAgent(k int) core.Config {
	cfg := core.DefaultConfig(k)
	cfg.Hidden = 128
	cfg.BatchSize = 32
	cfg.UpdatesPerRound = 4
	cfg.BufferCap = 4096
	return cfg
}

// warmAgent sets how many experiences the agent buffers before it
// starts training.
func warmAgent(cfg core.Config, warmup int) core.Config {
	cfg.WarmupExperiences = warmup
	return cfg
}

// gridWorkload is a registered experiment grid run through the
// content-addressed cache. replay is one of its cells rebuilt from the
// public fl API, so the traced run can split a grid cell into phases.
type gridWorkload struct {
	experiment string
	scale      experiments.Scale
	replay     flWorkload
}

func workloads() map[string]*workload {
	ci := experiments.CI()
	return map[string]*workload{
		"cnn-feddrl-ce": {
			name: "cnn-feddrl-ce",
			why: "train-bound: sync f64 FedDRL, simple CNN, CE cluster skew, 10 clients, the paper's E=5 b=10 lr=0.01; local " +
				"training dominates, the merge is under 1%, agent updates form the tail",
			fl: &flWorkload{
				data:    dataset.MNISTSim(),
				clients: 10, delta: 0.6,
				// Three labels per client always cover all ten classes,
				// and a quota of 20 per label is what the scarcest label
				// allows on any seed: every seed trains on the same 600
				// samples a round, so cost and accuracy do not swing
				// with the draw.
				labels: 3, quota: 20,
				cnn:    true,
				engine: "eager",
				k:      10,
				// The paper's local solver (§4.1.2).
				local: fl.LocalConfig{Epochs: 5, Batch: 10, LR: 0.01},
				// 60 rounds bring every seed to its accuracy plateau. The
				// agent warms up on 48 experiences, so its updates run in
				// the last 12 rounds and form the round-time tail.
				rounds: 60, evalEvery: 1,
				agent: warmAgent(lightAgent(10), 48),
			},
		},
		"byz-async-f32": {
			name: "byz-async-f32",
			why: "server-bound: async f32 FedDRL over 100k virtual clients, 20% sign-flip attack, median merge, stragglers " +
				"and drops; the robust merge is the largest phase and training is light",
			fl: &flWorkload{
				data:    dataset.MNISTSim(),
				clients: 100_000, cyclicPer: 8,
				hidden: []int{256, 128},
				engine: "async",
				// 20 dispatched per round against 16 merged: the 4 spare
				// updates per round absorb the 2% drops, and the surplus
				// left in flight keeps every later cohort full.
				k:      20,
				local:  fl.LocalConfig{Epochs: 1, Batch: 10, LR: 0.05},
				rounds: 100, evalEvery: 5,
				prec:   fl.F32,
				attack: fl.SignFlip{ByzantineSet: fl.ByzantineSet{Frac: 0.2}},
				merger: fl.Median{},
				async: asyncSetup{
					trace: fl.TraceArrivals{
						BaseDelay: 1, Jitter: 0.5,
						StragglerFrac: 0.3, StragglerFactor: 4,
						DropRate: 0.02,
					},
					decay: 0.5,
					every: 16,
				},
				agent: lightAgent(16),
			},
		},
		"grid-table3-ci": {
			name: "grid-table3-ci",
			why: "many short MLP cells: the table3 grid at CI scale, cold into a fresh cache, then warm from it; per-cell " +
				"set-up, grid fan-out and cache reads and writes carry the weight",
			grid: &gridWorkload{
				experiment: "table3",
				scale:      ci,
				replay:     ciCell(ci),
			},
		},
	}
}

// ciCell rebuilds the shape of one table3 cell at scale s — FedDRL on
// mnist-sim with CE skew at the small federation size, which takes full
// participation — over the virtual-client engine the grid uses.
func ciCell(s experiments.Scale) flWorkload {
	agent := core.DefaultConfig(s.SmallN)
	agent.Hidden = s.DRLHidden
	agent.BatchSize = s.DRLBatch
	agent.UpdatesPerRound = s.DRLUpdates
	agent.WarmupExperiences = s.DRLWarmup
	agent.ExploreStd = s.DRLExploreStd
	agent.ExploreDecay = s.DRLExploreDecay
	agent.BufferCap = 4096
	return flWorkload{
		data:    dataset.MNISTSim().Scaled(s.DataScale),
		clients: s.SmallN, delta: 0.6, labels: 2,
		// The grid's MLP cells have one hidden layer of 48 units.
		hidden:    []int{48},
		engine:    "virtual",
		k:         s.SmallN,
		local:     fl.LocalConfig{Epochs: s.Epochs, Batch: s.Batch, LR: s.LR},
		rounds:    s.Rounds,
		evalEvery: s.EvalEvery,
		agent:     agent,
	}
}

// reduced returns the workload shrunk for the self-check: the same
// engines, seams and checks on a fraction of the rounds and data.
func (wl *workload) reduced() *workload {
	out := *wl
	if wl.fl != nil {
		f := *wl.fl
		f.rounds = 6
		f.agent.WarmupExperiences = 2
		f.agent.BatchSize = 4
		if f.engine == "eager" {
			f.data = f.data.Scaled(0.25)
			f.local.Epochs = 1
		}
		out.fl = &f
	}
	if wl.grid != nil {
		g := *wl.grid
		g.scale.Rounds = 2
		g.scale.DataScale = 0.05
		g.replay = ciCell(g.scale)
		out.grid = &g
	}
	return &out
}

func lookup(name string) (*workload, error) {
	all := workloads()
	if w, ok := all[name]; ok {
		return w, nil
	}
	names := make([]string, 0, len(all))
	for n := range all {
		names = append(names, n)
	}
	sort.Strings(names)
	return nil, fmt.Errorf("unknown workload %q (known: %v)", name, names)
}
