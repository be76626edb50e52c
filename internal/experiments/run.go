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

// numGroups is the cluster count of the CE/CN partitions.
const numGroups = 3

// buildPartition constructs the named partition over the training set.
func buildPartition(name string, train *dataset.Dataset, spec dataset.Spec, n int, delta float64, r *rng.RNG) *partition.Assignment {
	lpc := labelsPerClient(spec)
	switch name {
	case "PA":
		return partition.Pareto(train, n, lpc, 1.5, r)
	case "CE":
		return partition.ClusteredEqual(train, n, delta, lpc, numGroups, r)
	case "CN":
		return partition.ClusteredNonEqual(train, n, delta, lpc, numGroups, 1.0, r)
	case "Equal":
		return partition.EqualShards(train, n, 2, r)
	case "Non-equal":
		return partition.NonEqualShards(train, n, 10, 6, 14, r)
	}
	panic(fmt.Sprintf("experiments: unknown partition %q", name))
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
	assign := buildPartition(partName, train, spec, n, delta, r)

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

// artifactStore executes cell jobs and caches their artifacts within one
// experiment invocation. It owns the invocation's engine pool: prefetch
// fans independent cells out across the pool's lanes, and every cell's
// inner federated run borrows the same lanes, keeping total parallelism
// bounded. The pool's work-stealing scheduler is what keeps the grid's
// three layers (cells → FL rounds → evaluation/merge) all parallel: a
// lane that drains its cells steals the nested jobs of the cells still
// running, so the tail of a grid is finished by every lane instead of
// one. Every grid entry point must release the pool with
// `defer st.close()` so a panicking cell run cannot leak it.
//
// An optional content-addressed Cache extends the in-memory store
// across invocations: cells found in the cache are loaded instead of
// recomputed, and freshly computed cells are written back (unless the
// cache is readonly). Lookups and write-backs are bit-exact, so cached
// and uncached runs render byte-identical output.
type artifactStore struct {
	s     Scale
	pool  *engine.Pool
	cache *Cache
	cells map[string]*CellArtifact
}

func newStore(s Scale, cache *Cache) *artifactStore {
	return &artifactStore{s: s, pool: s.newPool(), cache: cache, cells: map[string]*CellArtifact{}}
}

// close releases the store's pool (idempotent; nil-safe).
func (st *artifactStore) close() { st.pool.Close() }

// compute runs one cell spec to an artifact on the store's pool.
func (st *artifactStore) compute(spec CellSpec) *CellArtifact {
	ds := st.s.datasetByName(spec.Dataset)
	res := runMethodOn(st.s, ds, spec, st.pool, nil)
	return artifactOf(spec, res)
}

// prefetch computes every not-yet-cached job, independent cells in
// parallel on the pool. The on-disk cache is consulted sequentially
// first (I/O, not compute); only genuine misses fan out across the
// pool. Results land in per-job slots and are committed to the map only
// after the barrier, so no lock is needed and the store contents do not
// depend on completion order. Callers must enumerate every cell their
// rendering loop will get(): get panics on any other.
func (st *artifactStore) prefetch(jobs []CellSpec) {
	pending := make([]CellSpec, 0, len(jobs))
	queued := map[string]bool{}
	for _, j := range jobs {
		key := j.Key()
		if _, done := st.cells[key]; done || queued[key] {
			continue
		}
		if a, ok := st.cache.load(st.s, j); ok {
			st.cells[key] = a
			continue
		}
		queued[key] = true
		pending = append(pending, j)
	}
	results := make([]*CellArtifact, len(pending))
	st.pool.For(len(pending), func(i int) {
		a := st.compute(pending[i])
		results[i] = a
		// Publish to the cache immediately, not after the barrier: a
		// killed run must keep every cell it finished, or interrupted
		// shards could never resume. Concurrent stores are safe — each
		// record is its own temp file + rename, and the stats counters
		// are mutex-guarded.
		st.cache.store(st.s, pending[i], a)
	})
	for i, j := range pending {
		st.cells[j.Key()] = results[i]
	}
}

// get returns a prefetched cell's artifact. A renderer that asks for a
// cell outside its grid's job list is a bug, so that panics, naming the
// cell, as RenderSet's getter does.
func (st *artifactStore) get(spec CellSpec) *CellArtifact {
	a, ok := st.cells[spec.Key()]
	if !ok {
		panic(fmt.Sprintf("experiments: renderer requested cell %s outside the job list", spec.Key()))
	}
	return a
}
