package experiments

import (
	"fmt"

	"feddrl/internal/core"
	"feddrl/internal/dataset"
	"feddrl/internal/engine"
	"feddrl/internal/fl"
	"feddrl/internal/partition"
	"feddrl/internal/rng"
)

// Methods compared throughout the evaluation, in the paper's column
// order.
var Methods = []string{"SingleSet", "FedAvg", "FedProx", "FedDRL"}

// PartitionNames in the paper's order for Table 3.
var PartitionNames = []string{"PA", "CE", "CN"}

// defaultDelta is the non-IID level used by Table 3 ("we set δ = 0.6").
const defaultDelta = 0.6

// buildPartition builds the named partition with the paper's constants
// (partition.ByName). Every caller's name, client count and delta are
// valid by construction, so an error is a bug.
func buildPartition(name string, train *dataset.Dataset, n int, delta float64, r *rng.RNG) *partition.Assignment {
	a, err := partition.ByName(name, train, n, delta, r)
	if err != nil {
		panic(err)
	}
	return a
}

// drlConfig sizes the agent per Table 1, shrunk by the scale.
func (s Scale) drlConfig(k int, seed uint64) core.Config {
	cfg := core.DefaultConfig(k)
	cfg.Hidden = s.DRLHidden
	cfg.BatchSize = s.DRLBatch
	cfg.UpdatesPerRound = s.DRLUpdates
	cfg.WarmupExperiences = s.DRLWarmup
	if s.DRLExploreStd > 0 {
		cfg.ExploreStd = s.DRLExploreStd
	}
	if s.DRLExploreDecay > 0 {
		cfg.ExploreDecay = s.DRLExploreDecay
	}
	cfg.BufferCap = 4096
	cfg.Seed = seed
	return cfg
}

// runMethodOn executes one cell on a shared engine pool and returns its
// result. cell.Delta applies to the clustered partitions only. The
// cell's client training, evaluation and aggregation all borrow the
// pool's lanes, so many cells can run concurrently under one global
// worker bound. A nil pool falls back to the scale's own Workers
// setting.
//
// The cell's Attack/AttackFrac/Merger fields (falling back to the
// scale-level fields when the cell leaves all three zero) configure
// Byzantine fault injection and the robust merge rule; both default to
// the benign, byte-identical historical behavior.
//
// variant, when non-nil, modifies a FedDRL cell's aggregator before the
// run: the ablations swap its agent or switch off its FedAvg prior.
// Grid cells pass nil.
func runMethodOn(s Scale, spec dataset.Spec, cell CellSpec, pool *engine.Pool, variant func(*fl.FedDRL)) *fl.Result {
	partName, method := cell.Partition, cell.Method
	n, k, delta, seed := cell.N, cell.K, cell.Delta, cell.Seed
	attackName, attackFrac, mergerName := cell.Attack, cell.AttackFrac, cell.Merger
	if attackName == "" && attackFrac == 0 && mergerName == "" {
		attackName, attackFrac, mergerName = s.Attack, s.AttackFrac, s.Merger
	}
	train, test := dataset.Synthesize(spec, seed)
	// The paper's default K=10 means full participation at its small
	// federation size (N=10, §4.1.2); mirror that so the FedDRL state's
	// slots stay client-consistent in the SmallN runs.
	if n <= s.SmallN {
		k = n
	}
	if k > n {
		k = n
	}
	if method == "SingleSet" {
		cfg := s.runConfig(spec, k, 0, seed+1)
		// The baseline borrows the same pool as the federated cells, so
		// its kernel/eval parallelism — and therefore its timings — are
		// comparable with theirs.
		cfg.Pool = pool
		return fl.SingleSet(cfg, train, test)
	}
	r := rng.New(seed + 2)
	assign := buildPartition(partName, train, n, delta, r)

	// A "+mode" suffix selects the asynchronous engine (see async.go);
	// the base method picks the aggregator as before. FedDRL's impact
	// computation is fixed-width, so its agent is sized to the cohort
	// the server actually merges: the async threshold for "+stale"
	// cells, K otherwise.
	base, mode := asyncVariant(method)
	aggCohort := k
	if mode == asyncModeStale {
		aggCohort = asyncThreshold(k)
	}

	proxMu := 0.0
	var agg fl.Aggregator
	switch base {
	case "FedAvg":
		agg = fl.FedAvg{}
	case "FedProx":
		agg = fl.FedProx{}
		proxMu = s.ProxMu
	case "FedDRL":
		drl := fl.NewFedDRL(core.NewAgent(s.drlConfig(aggCohort, seed+3)))
		if variant != nil {
			variant(drl)
		}
		agg = drl
	default:
		panic(fmt.Sprintf("experiments: unknown method %q", method))
	}
	cfg := s.runConfig(spec, k, proxMu, seed+1)
	cfg.Pool = pool
	// Byzantine cells: the attack seed stays 0 (derived from the run
	// seed), so a cell's fault trace is as reproducible as everything
	// else keyed off its CellSpec. Krum's tolerance is sized to the
	// declared malicious fraction of the merge cohort.
	atk, err := fl.ParseAttack(attackName, attackFrac)
	if err != nil {
		panic(err)
	}
	cfg.Attack = atk
	mg, err := fl.ParseMerger(mergerName, attackFrac, aggCohort)
	if err != nil {
		panic(err)
	}
	cfg.Merger = mg
	// Virtual clients: only the K selected identities occupy client
	// state at a time, so a cell's memory is O(K) in its client count.
	// Bit-identical to the eager fl.Run path with the same seed.
	cp := fl.NewClientPool(train, fl.IndexPartition(assign.ClientIndices), cfg.Factory, seed+4)
	if mode != "" {
		ar, err := fl.RunAsync(asyncConfigFor(mode, cfg, k, seed), cp, test, agg)
		if err != nil {
			// Grid traces are drop-free by construction (asyncStaleTrace
			// sets no OfflineFrac/DropRate), so starvation here means the
			// configuration is broken, not flaky.
			panic(err)
		}
		return ar.Result
	}
	return fl.RunVirtual(cfg, cp, test, agg)
}

// compute fills the set with the artifacts of jobs, which join it in
// job order: a cell the set already holds is kept, a cache hit is
// loaded, and the misses run concurrently on one engine pool of the
// scale's width, built only when some cell misses. Each cell's inner
// federated run borrows the same lanes, and work stealing keeps the
// grid's three layers (cells → FL rounds → evaluation/merge) parallel.
// Cached and computed cells are bit-exact, so cached and uncached runs
// render byte-identical output.
func (as *ArtifactSet) compute(s Scale, jobs []CellSpec, cache *Cache) {
	var misses []CellSpec
	var missKeys []string
	for _, j := range jobs {
		key := j.Key()
		if _, done := as.Cells[key]; done {
			continue
		}
		// A miss holds its place in the job order as a nil entry until
		// it is computed.
		a, _ := cache.load(s, j)
		as.Cells[key] = a
		as.order = append(as.order, key)
		if a == nil {
			misses = append(misses, j)
			missKeys = append(missKeys, key)
		}
	}
	if len(misses) == 0 {
		return
	}
	pool := s.newPool()
	defer pool.Close()
	results := make([]*CellArtifact, len(misses))
	pool.For(len(misses), func(i int) {
		j := misses[i]
		results[i] = artifactOf(j, runMethodOn(s, s.datasetByName(j.Dataset), j, pool, nil))
		// Publish to the cache as soon as the cell finishes, not after
		// the barrier: a killed run must keep every cell it finished, or
		// interrupted shards could never resume. Concurrent stores are
		// safe — each record is its own temp file + rename, and the stats
		// counters are mutex-guarded.
		cache.store(s, j, results[i])
	})
	for i, key := range missKeys {
		as.Cells[key] = results[i]
	}
}
