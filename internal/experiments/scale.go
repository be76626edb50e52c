// Package experiments regenerates every table and figure of the paper's
// evaluation (§4–5): Table 2 (partition characteristics), Table 3 (top-1
// accuracy across datasets × partitions × client counts × methods),
// Table 4 (label-size-imbalance shards), Figure 4 (partition
// illustration), Figure 5 (accuracy timelines), Figure 6 (per-client
// inference-loss robustness), Figure 7 (participation sweep), Figure 8
// (non-IID level sweep), Figure 9 (server computation time) and Figure 10
// (convergence rounds), plus the design ablations listed in
// DESIGN.md §4. Each experiment is a named entry in Registry, so the CLI
// (cmd/tables), the benchmarks (bench_test.go) and tests all share one
// implementation. Grid experiments decompose into serializable CellSpec
// jobs whose CellArtifact results render in a pure merge/format stage,
// which is what enables cross-process sharding (tables -shard/-merge)
// and seed replication (-seeds).
package experiments

import (
	"fmt"
	"math"
	"runtime"

	"feddrl/internal/dataset"
	"feddrl/internal/engine"
	"feddrl/internal/fl"
	"feddrl/internal/nn"
	"feddrl/internal/rng"
)

// Scale selects how big an experiment run is. The shapes the paper
// reports (method ordering, crossovers) are preserved across scales; only
// absolute accuracy and wall-clock change.
type Scale struct {
	Name string

	// DataScale multiplies per-class sample counts of the dataset specs.
	DataScale float64
	// Rounds is the number of communication rounds per run.
	Rounds int
	// SmallN and LargeN are the two federation sizes of Table 3 (the
	// paper's 10 and 100 clients).
	SmallN, LargeN int
	// K is the default number of participating clients per round.
	K int

	// Local solver settings (paper: E=5, b=10, lr=0.01).
	Epochs int
	Batch  int
	LR     float64
	ProxMu float64

	// DRL agent sizing.
	DRLHidden  int
	DRLBatch   int
	DRLUpdates int
	DRLWarmup  int
	// DRLExploreStd and DRLExploreDecay tune the action noise: shorter
	// runs use less noise with faster decay (DESIGN.md
	// "compressed-horizon adaptations").
	DRLExploreStd   float64
	DRLExploreDecay float64

	// KSweep holds the participation levels of Fig. 7; Deltas the
	// non-IID levels of Fig. 8.
	KSweep []int
	Deltas []float64

	// UseConvNets switches the client models from MLPs to the paper's
	// convolutional architectures (SimpleCNN / VGGMini).
	UseConvNets bool
	// Precision selects the federated-state width of every cell
	// ("f32", "f64", or "" for the f64 default — see fl.Precision).
	// It changes each cell's numeric results, so it is part of the
	// cache key: f32 and f64 cells never share a record.
	Precision string
	// EvalEvery is the test-evaluation cadence.
	EvalEvery int
	// Attack, AttackFrac and Merger apply a scale-wide Byzantine fault
	// model and robust merge rule to every cell whose CellSpec leaves
	// its own attack fields zero (the -attack/-merger CLI flags set
	// these). The zero values are the benign default and contribute
	// nothing to cache addresses; non-zero values are folded in
	// conditionally (see hashedScale).
	Attack     string
	AttackFrac float64
	Merger     string
	// Workers is the bounded engine width used both across independent
	// experiment cells (Table 3 / Fig. 7 / Fig. 8 grids) and inside each
	// federated run (client training, evaluation, aggregation); the
	// work-stealing scheduler shares the same lanes across all three
	// layers, so nested loops stay parallel even when the grid saturates
	// the pool. 0 and 1 mean sequential. Any value produces
	// bit-identical experiment output.
	Workers int
}

// newPool builds the shared engine pool for one experiment invocation,
// or nil (inline execution) when the scale is sequential.
func (s Scale) newPool() *engine.Pool {
	if s.Workers <= 1 {
		return nil
	}
	return engine.New(s.Workers)
}

// CI returns the continuous-integration scale: every experiment finishes
// in seconds on one CPU core.
func CI() Scale {
	return Scale{
		Name:      "ci",
		DataScale: 0.15,
		Rounds:    10,
		SmallN:    10, LargeN: 24,
		K:      6,
		Epochs: 2, Batch: 10, LR: 0.05, ProxMu: 0.01,
		DRLHidden: 32, DRLBatch: 16, DRLUpdates: 2, DRLWarmup: 4,
		DRLExploreStd: 0.08, DRLExploreDecay: 0.99,
		KSweep:      []int{4, 8, 12},
		Deltas:      []float64{0.2, 0.4, 0.6},
		UseConvNets: false,
		EvalEvery:   1,
	}
}

// Medium returns the mid-size scale: minutes per experiment, large
// enough for the paper's orderings to emerge clearly.
func Medium() Scale {
	return Scale{
		Name:      "medium",
		DataScale: 0.5,
		Rounds:    40,
		SmallN:    10, LargeN: 40,
		K:      8,
		Epochs: 3, Batch: 10, LR: 0.03, ProxMu: 0.01,
		DRLHidden: 64, DRLBatch: 32, DRLUpdates: 4, DRLWarmup: 8,
		DRLExploreStd: 0.05, DRLExploreDecay: 0.99,
		KSweep:      []int{8, 16, 24},
		Deltas:      []float64{0.2, 0.4, 0.6},
		UseConvNets: false,
		EvalEvery:   2,
	}
}

// Paper returns the closest configuration to §4.1.2 that is feasible on
// this substrate (full synthetic datasets, convolutional client models,
// Table 1 DRL sizing).
func Paper() Scale {
	return Scale{
		Name:      "paper",
		DataScale: 1.0,
		Rounds:    150,
		SmallN:    10, LargeN: 100,
		K:      10,
		Epochs: 5, Batch: 10, LR: 0.01, ProxMu: 0.01,
		DRLHidden: 256, DRLBatch: 64, DRLUpdates: 8, DRLWarmup: 16,
		DRLExploreStd: 0.1, DRLExploreDecay: 0.995,
		KSweep:      []int{10, 20, 50},
		Deltas:      []float64{0.2, 0.4, 0.6},
		UseConvNets: true,
		EvalEvery:   5,
		Workers:     runtime.GOMAXPROCS(0),
	}
}

// ScaleByName resolves "ci", "medium" or "paper".
func ScaleByName(name string) (Scale, error) {
	switch name {
	case "ci":
		return CI(), nil
	case "medium":
		return Medium(), nil
	case "paper":
		return Paper(), nil
	}
	return Scale{}, fmt.Errorf("experiments: unknown scale %q (want ci, medium or paper)", name)
}

// datasets returns the three evaluation dataset specs at this scale.
func (s Scale) datasets() []dataset.Spec {
	return []dataset.Spec{
		dataset.CIFAR100Sim().Scaled(s.DataScale),
		dataset.FashionSim().Scaled(s.DataScale),
		dataset.MNISTSim().Scaled(s.DataScale),
	}
}

// datasetByName resolves one of the scale's dataset specs by exact name
// (the executable form of CellSpec.Dataset).
func (s Scale) datasetByName(name string) (dataset.Spec, error) {
	for _, spec := range s.datasets() {
		if spec.Name == name {
			return spec, nil
		}
	}
	return dataset.Spec{}, fmt.Errorf("experiments: unknown dataset %q", name)
}

// Check reports a scale no cell can run at. In order: DataScale must be
// above 0 and keep every dataset's per-class counts within an int, each
// scaled dataset spec, the run configuration and the agent
// configuration must pass their Check, and the scale-wide attack and
// merger must parse.
func (s Scale) Check() error {
	for _, spec := range (Scale{DataScale: 1}).datasets() {
		// Scaled converts each full-size per-class count times
		// DataScale to int; +Inf and NaN fail this test too.
		if !(s.DataScale > 0 && s.DataScale*float64(max(spec.TrainPerClass, spec.TestPerClass)) < math.MaxInt64) {
			return fmt.Errorf("experiments: DataScale %v must be above 0 and keep %s's per-class counts within an int", s.DataScale, spec.Name)
		}
		if err := spec.Scaled(s.DataScale).Check(); err != nil {
			return err
		}
	}
	_, atkErr := fl.ParseAttack(s.Attack, s.AttackFrac)
	_, mgErr := fl.ParseMerger(s.Merger, s.AttackFrac, s.K)
	for _, err := range []error{s.runConfig(s.datasets()[0], s.K, s.ProxMu, 0).Check(), s.drlConfig(s.K, 0).Check(), atkErr, mgErr} {
		if err != nil {
			return err
		}
	}
	return nil
}

// factoryFor returns the client model factory for a dataset at this
// scale: MLPs at CI/medium scale, the paper's CNN/VGG shapes at paper
// scale (§4.1.2: simple CNN for MNIST/Fashion, VGG for CIFAR-100).
func (s Scale) factoryFor(spec dataset.Spec) nn.Factory {
	sh := spec.Shape
	if s.UseConvNets {
		if spec.Classes >= 100 {
			return func(seed uint64) *nn.Network {
				return nn.NewVGGMini(rng.New(seed), sh.C, sh.H, sh.W, spec.Classes)
			}
		}
		return func(seed uint64) *nn.Network {
			return nn.NewSimpleCNN(rng.New(seed), sh.C, sh.H, sh.W, spec.Classes)
		}
	}
	hidden := 48
	return func(seed uint64) *nn.Network {
		return nn.NewMLP(rng.New(seed), sh.Len(), []int{hidden}, spec.Classes)
	}
}

// runConfig assembles the fl.RunConfig for this scale. The parallelism
// settings (Workers, or the Pool the caller attaches) govern every
// method uniformly — including the SingleSet baseline, whose kernel and
// evaluation fan-out runs on the same engine as the federated cells.
func (s Scale) runConfig(spec dataset.Spec, k int, proxMu float64, seed uint64) fl.RunConfig {
	return fl.RunConfig{
		Rounds:    s.Rounds,
		K:         k,
		Local:     fl.LocalConfig{Epochs: s.Epochs, Batch: s.Batch, LR: s.LR, ProxMu: proxMu},
		Factory:   s.factoryFor(spec),
		Seed:      seed,
		Workers:   s.Workers,
		EvalEvery: s.EvalEvery,
		Precision: fl.Precision(s.Precision),
	}
}
