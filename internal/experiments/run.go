package experiments

import (
	"fmt"
	"slices"
	"sync"

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
	cfg.ExploreStd = s.DRLExploreStd
	cfg.ExploreDecay = s.DRLExploreDecay
	cfg.BufferCap = 4096
	cfg.Seed = seed
	return cfg
}

// RunCell runs one grid cell at scale s, as the grids run it, and
// returns its result. It returns an error, before anything trains, for
// a scale that fails Check or a cell no run can be built from.
func RunCell(s Scale, cell CellSpec) (*fl.Result, error) {
	if err := s.Check(); err != nil {
		return nil, err
	}
	return runCell(s, cell, dataset.Synthesize, nil, nil)
}

// synthesizer returns the train and test splits of a dataset spec at a
// seed: dataset.Synthesize, or a grid pass's shared pairs
// (sharedData.synthesize).
type synthesizer func(spec dataset.Spec, seed uint64) (train, test *dataset.Dataset)

// runCell executes one cell on a shared engine pool and returns its
// result, or, before anything trains, an error for an unknown dataset
// or method (base name or "+mode" suffix), N or K below 1, or a bad
// attack, merger or partition. The cell's client training, evaluation
// and aggregation all borrow the pool's lanes, so many cells can run
// concurrently under one global worker bound; a nil pool falls back to
// the scale's own Workers setting.
//
// The cell's Attack/AttackFrac/Merger fields (falling back to the
// scale-level fields when the cell leaves all three zero) configure
// Byzantine fault injection and the robust merge rule; both default to
// the benign, byte-identical historical behavior.
//
// data supplies the cell's (dataset, seed) pair. The run only reads it
// (training, partitioning, evaluation and the label-flip attack all
// read through views), so one pair can serve many cells at once.
//
// variant, when non-nil, modifies a FedDRL cell's aggregator before the
// run: the ablations swap its agent or switch off its FedAvg prior.
// Grid cells pass nil.
func runCell(s Scale, cell CellSpec, data synthesizer, pool *engine.Pool, variant func(*fl.FedDRL)) (*fl.Result, error) {
	spec, err := s.datasetByName(cell.Dataset)
	if err != nil {
		return nil, err
	}
	// A "+mode" suffix selects the asynchronous engine (see async.go);
	// the base method picks the aggregator.
	base, mode := asyncVariant(cell.Method)
	knownMode := mode == "" || (base != "SingleSet" && (mode == asyncModeDegenerate || mode == asyncModeStale))
	if !slices.Contains(Methods, base) || !knownMode {
		return nil, fmt.Errorf("experiments: unknown method %q", cell.Method)
	}
	if cell.N < 1 || cell.K < 1 {
		return nil, fmt.Errorf("experiments: N %d and K %d must be at least 1", cell.N, cell.K)
	}
	attackName, attackFrac, mergerName := cell.Attack, cell.AttackFrac, cell.Merger
	if cell.benign() {
		attackName, attackFrac, mergerName = s.Attack, s.AttackFrac, s.Merger
	}
	// Byzantine cells: the attack seed stays 0 (derived from the run
	// seed), so a cell's fault trace is as reproducible as everything
	// else keyed off its CellSpec.
	atk, err := fl.ParseAttack(attackName, attackFrac)
	if err != nil {
		return nil, err
	}
	// The paper's default K=10 means full participation at its small
	// federation size (N=10, §4.1.2); mirror that so the FedDRL state's
	// slots stay client-consistent in the SmallN runs.
	k := min(cell.K, cell.N)
	if cell.N <= s.SmallN {
		k = cell.N
	}
	train, test := data(spec, cell.Seed)
	cfg := s.runConfig(spec, k, 0, cell.Seed+1)
	// SingleSet borrows the same pool as the federated cells, so its
	// timings are comparable with theirs. It merges one update.
	cfg.Pool = pool
	cohort := 1
	var cp *fl.ClientPool
	if base != "SingleSet" {
		assign, err := partition.ByName(cell.Partition, train, cell.N, cell.Delta, rng.New(cell.Seed+2))
		if err != nil {
			return nil, err
		}
		// Virtual clients: only the K selected identities occupy client
		// state at a time, so a cell's memory is O(K) in its client
		// count, bit-identical to the eager fl.Run path.
		cp = fl.NewClientPool(train, fl.IndexPartition(assign.ClientIndices), cfg.Factory, cell.Seed+4)
		// The round engine selects only clients with data, so K is
		// clamped to them before the agent and Krum's f are sized. The
		// agent is sized to the cohort the server merges: the async
		// threshold for "+stale" cells, K otherwise.
		cfg.K = min(k, cp.NumClients())
		cohort = cfg.K
		if mode == asyncModeStale {
			cohort = asyncThreshold(cfg.K)
		}
	}
	// Krum's tolerance is sized to the declared malicious fraction of
	// the merge cohort.
	mg, err := fl.ParseMerger(mergerName, attackFrac, cohort)
	if err != nil {
		return nil, err
	}
	cfg.Attack, cfg.Merger = atk, mg
	var agg fl.Aggregator
	switch base {
	case "SingleSet":
		return fl.SingleSet(cfg, train, test), nil
	case "FedAvg":
		agg = fl.FedAvg{}
	case "FedProx":
		agg = fl.FedProx{}
		cfg.Local.ProxMu = s.ProxMu
	case "FedDRL":
		drl := fl.NewFedDRL(core.NewAgent(s.drlConfig(cohort, cell.Seed+3)))
		if variant != nil {
			variant(drl)
		}
		agg = drl
	}
	if mode == "" {
		return fl.RunVirtual(cfg, cp, test, agg), nil
	}
	ar, err := fl.RunAsync(asyncConfigFor(mode, cfg, cell.Seed), cp, test, agg)
	return ar.Result, err
}

// runIdentity returns the part of a cell's spec its run reads: two cells
// with one identity perform the same run and get bit-identical results.
// A SingleSet run trains one client on its dataset's whole training set
// at its seed: runCell builds it no partition, and fl.SingleSet
// ignores K, the attack and the merger. So its identity clears
// Partition, N, K, Delta and the attack and merger fields. Every other
// method reads its whole spec.
func runIdentity(c CellSpec) CellSpec {
	if c.Method != "SingleSet" {
		return c
	}
	return CellSpec{Dataset: c.Dataset, Method: c.Method, Seed: c.Seed}
}

// groupRuns groups jobs by the run they perform (runIdentity), in the
// order each run first appears, as indices into jobs. A group's first
// job is the one that runs; its result is every member's.
func groupRuns(jobs []CellSpec) [][]int {
	var groups [][]int
	at := map[string]int{}
	for i, j := range jobs {
		id := runIdentity(j).Key()
		g, ok := at[id]
		if !ok {
			g = len(groups)
			at[id] = g
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], i)
	}
	return groups
}

// sharedData synthesizes each (dataset, seed) pair of a grid pass once,
// when a run first asks for it, and hands every run on that pair the
// same read-only splits. The zero value is ready to use; a pass has one
// scale, so a dataset's name fixes its spec.
type sharedData struct {
	mu    sync.Mutex
	pairs map[dataKey]*dataPair
}

type dataKey struct {
	name string
	seed uint64
}

type dataPair struct {
	once        sync.Once
	train, test *dataset.Dataset
}

// synthesize is the pass's synthesizer.
func (d *sharedData) synthesize(spec dataset.Spec, seed uint64) (train, test *dataset.Dataset) {
	k := dataKey{spec.Name, seed}
	d.mu.Lock()
	if d.pairs == nil {
		d.pairs = map[dataKey]*dataPair{}
	}
	p, ok := d.pairs[k]
	if !ok {
		p = &dataPair{}
		d.pairs[k] = p
	}
	d.mu.Unlock()
	p.once.Do(func() { p.train, p.test = dataset.Synthesize(spec, seed) })
	return p.train, p.test
}

// compute fills the set with the artifacts of jobs, which join it in
// job order: a cell the set already holds is kept, a cache hit is
// loaded, and the misses run on one engine pool of the scale's width,
// built only when some cell misses. The misses are grouped by the run
// they perform (groupRuns), so one run serves every cell of its group,
// and each (dataset, seed) pair is synthesized once (sharedData).
// The runs execute concurrently; each run's inner federated run borrows
// the same lanes, and work stealing keeps the grid's three layers
// (cells → FL rounds → evaluation/merge) parallel. Cached and computed
// cells are bit-exact, so cached and uncached runs render byte-identical
// output.
func (as *ArtifactSet) compute(s Scale, jobs []CellSpec, cache *Cache) {
	// The scale's key fields and each job's Key are computed once and
	// passed to every cache lookup and write-back.
	scale := hashedScale(s)
	var misses []CellSpec
	var missKeys []string
	for _, j := range jobs {
		key := j.Key()
		if _, done := as.Cells[key]; done {
			continue
		}
		// A miss holds its place in the job order as a nil entry until
		// it is computed.
		a, _ := cache.load(scale, j, key)
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
	var data sharedData
	runs := groupRuns(misses)
	results := make([]*CellArtifact, len(misses))
	pool.For(len(runs), func(r int) {
		// Every job comes from a registered grid, so its spec is valid
		// by construction and an error is a bug.
		res, err := runCell(s, misses[runs[r][0]], data.synthesize, pool, nil)
		if err != nil {
			panic(err)
		}
		for _, i := range runs[r] {
			results[i] = artifactOf(misses[i], res)
			// Publish to the cache as soon as the run finishes, not
			// after the barrier: a killed run must keep every cell it
			// finished, or interrupted shards could never resume.
			// Concurrent stores are safe — each record is its own temp
			// file + rename, and the stats counters are mutex-guarded.
			cache.store(scale, missKeys[i], results[i])
		}
	})
	for i, key := range missKeys {
		as.Cells[key] = results[i]
	}
}
