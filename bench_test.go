package feddrl

// The benchmark harness regenerates every table and figure of the
// paper's evaluation (DESIGN.md §4 maps experiment ids to paper
// artifacts). Each Benchmark runs the experiment at CI scale and prints
// the rendered rows once, so
//
//	go test -bench=. -benchmem
//
// both times the harness and reproduces the evaluation's shape. Use
// cmd/tables -scale medium|paper for the larger runs.

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"feddrl/internal/core"
	"feddrl/internal/engine"
	"feddrl/internal/experiments"
	"feddrl/internal/fl"
	"feddrl/internal/mathx"
	"feddrl/internal/nn"
	"feddrl/internal/rng"
	"feddrl/internal/tensor"
)

var printOnce sync.Map

// runExperimentBench executes a registered experiment b.N times and
// prints its output the first time it runs in this process.
func runExperimentBench(b *testing.B, id string) {
	b.Helper()
	s := experiments.CI()
	for i := 0; i < b.N; i++ {
		out, err := experiments.RunCached(id, s, 1, nil)
		if err != nil {
			b.Fatal(err)
		}
		if _, loaded := printOnce.LoadOrStore(id, true); !loaded {
			fmt.Fprintf(os.Stdout, "\n%s\n", out)
		}
	}
}

// --- One benchmark per paper artifact -------------------------------

func BenchmarkTable2Partitions(b *testing.B)          { runExperimentBench(b, "table2") }
func BenchmarkFigure4Illustration(b *testing.B)       { runExperimentBench(b, "figure4") }
func BenchmarkTable3Accuracy(b *testing.B)            { runExperimentBench(b, "table3") }
func BenchmarkFigure5Timelines(b *testing.B)          { runExperimentBench(b, "figure5") }
func BenchmarkFigure6ClientRobustness(b *testing.B)   { runExperimentBench(b, "figure6") }
func BenchmarkFigure7ParticipationSweep(b *testing.B) { runExperimentBench(b, "figure7") }
func BenchmarkFigure8NonIIDSweep(b *testing.B)        { runExperimentBench(b, "figure8") }
func BenchmarkFigure9ServerOverhead(b *testing.B)     { runExperimentBench(b, "figure9") }
func BenchmarkFigure10Convergence(b *testing.B)       { runExperimentBench(b, "figure10") }
func BenchmarkTable4LabelSizeImbalance(b *testing.B)  { runExperimentBench(b, "table4") }

// --- Ablations (DESIGN.md §4) ----------------------------------------

func BenchmarkAblationRewardGap(b *testing.B) { runExperimentBench(b, "ablation-reward") }
func BenchmarkAblationStateNorm(b *testing.B) { runExperimentBench(b, "ablation-statenorm") }
func BenchmarkAblationTwoStage(b *testing.B)  { runExperimentBench(b, "ablation-twostage") }
func BenchmarkAblationPrior(b *testing.B)     { runExperimentBench(b, "ablation-prior") }
func BenchmarkCommOverhead(b *testing.B)      { runExperimentBench(b, "comm-overhead") }
func BenchmarkHeadlineClaim(b *testing.B)     { runExperimentBench(b, "headline") }

// --- Figure 1 (motivation): cluster-skewed pill cohorts ---------------

func BenchmarkFigure1PillClusters(b *testing.B) {
	spec := DataSpec{
		Name: "pills", Classes: 12,
		Shape:         ImageShape{C: 1, H: 8, W: 8},
		TrainPerClass: 20, TestPerClass: 5,
		ProtoStd: 1.4, NoiseStd: 0.8,
	}
	for i := 0; i < b.N; i++ {
		train, _ := Synthesize(spec, 2026)
		assign := ClusteredNonEqual(train, 30, 0.6, 4, 3, 1.2, NewRNG(3))
		st := ComputePartitionStats(train, assign)
		if _, loaded := printOnce.LoadOrStore("figure1", true); !loaded {
			fmt.Printf("\nFigure 1 analogue: 30 patients, 3 disease cohorts\n")
			fmt.Printf("cluster score %.3f, quantity CV %.3f, coverage %.0f%%\n",
				st.ClusterScore, st.QuantityCV, st.Coverage*100)
		}
	}
}

// --- Fig. 9 micro-benchmarks: the two server-side costs ---------------

// BenchmarkDRLDecision measures one impact-factor decision (policy
// forward + softmax sampling) at the paper's K=10, Table 1 sizing. The
// paper reports ~3 ms on a Xeon; the claim to preserve is that this cost
// is model-size independent and small.
func BenchmarkDRLDecision(b *testing.B) {
	cfg := core.DefaultConfig(10)
	agent := core.NewAgent(cfg)
	state := make([]float64, cfg.StateDim())
	for i := range state {
		state[i] = 0.1 * float64(i%7)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		act := agent.Act(state, false)
		_ = agent.ImpactFactors(act, false)
	}
}

// BenchmarkAggregateCNN and BenchmarkAggregateVGG measure the Eq. 4
// weighted merge for the two model sizes of Fig. 9: aggregation cost must
// grow with parameter count while the DRL decision does not.
func benchmarkAggregate(b *testing.B, factory ModelFactory) {
	const k = 10
	dim := factory(1).NumParams()
	ups := make([]fl.Update, k)
	for i := range ups {
		w := make([]float64, dim)
		for j := range w {
			w[j] = float64(i + j)
		}
		ups[i] = fl.Update{N: 100, Weights: w}
	}
	alpha := make([]float64, k)
	for i := range alpha {
		alpha[i] = 1.0 / k
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = fl.WeightedMerge{}.Merge(ups, alpha, nil)
	}
	b.ReportMetric(float64(dim), "params")
}

func BenchmarkAggregateCNN(b *testing.B) {
	spec := MNISTSim()
	benchmarkAggregate(b, CNNFactory(spec.Shape, spec.Classes))
}

func BenchmarkAggregateVGG(b *testing.B) {
	spec := CIFAR100Sim()
	benchmarkAggregate(b, func(seed uint64) *Network {
		return NewVGGMini(NewRNG(seed), spec.Shape.C, spec.Shape.H, spec.Shape.W, spec.Classes)
	})
}

// --- Component benchmarks ---------------------------------------------

// BenchmarkClientLocalRound measures one client's full local round (the
// dominant cost of every experiment).
func BenchmarkClientLocalRound(b *testing.B) {
	spec := MNISTSim().Scaled(0.2)
	train, _ := Synthesize(spec, 1)
	factory := MLPFactory(train.Dim, []int{48}, train.NumClasses)
	client := NewClient(0, train, factory, 2)
	global := factory(3).ParamVector()
	lc := LocalConfig{Epochs: 1, Batch: 10, LR: 0.03}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = client.Run(global, lc)
	}
}

// BenchmarkAgentTrainStep measures one Algorithm 1 training call with
// a warm buffer: at Table 1 sizing with one update (k10), the full
// Table 1 call at K=16 with 60 and with 64 buffered experiences (a
// 60-row batch ends in partial GEMM tiles, a 64-row one does not), and
// the byz-async-f32 workload's agent (K=16, 128 hidden, batch 32, four
// updates) over a full reprioritization chunk.
func BenchmarkAgentTrainStep(b *testing.B) {
	k10 := core.DefaultConfig(10)
	k10.UpdatesPerRound = 1
	k10.BufferCap = 1024
	byz := core.DefaultConfig(16)
	byz.Hidden, byz.BatchSize, byz.UpdatesPerRound, byz.BufferCap = 128, 32, 4, 4096
	for _, c := range []struct {
		name     string
		cfg      core.Config
		buffered int
	}{
		{"k10", k10, 128},
		{"table1-k16-buf60", core.DefaultConfig(16), 60},
		{"table1-k16-buf64", core.DefaultConfig(16), 64},
		{"byz-k16", byz, 128},
	} {
		b.Run(c.name, func(b *testing.B) {
			agent := core.NewAgent(c.cfg)
			s := make([]float64, c.cfg.StateDim())
			act := make([]float64, c.cfg.ActionDim())
			for i := 0; i < c.buffered; i++ {
				s[0] = float64(i)
				agent.Observe(s, act, -1, s)
			}
			agent.Train()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				agent.Train()
			}
		})
	}
}

// BenchmarkFullRoundFedAvg and BenchmarkFullRoundFedDRL compare the cost
// of a complete communication round under both aggregators (the FedDRL
// overhead claim of §5.3, end to end).
func benchmarkFullRound(b *testing.B, useDRL bool) {
	spec := MNISTSim().Scaled(0.1)
	train, test := Synthesize(spec, 1)
	assign := ClusteredEqual(train, 6, 0.6, 2, 3, NewRNG(2))
	factory := MLPFactory(train.Dim, []int{32}, train.NumClasses)
	cfg := RunConfig{
		Rounds: 1, K: 6,
		Local:   LocalConfig{Epochs: 1, Batch: 10, LR: 0.03},
		Factory: factory, Seed: 3,
		EvalEvery: 1,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		clients := BuildClients(train, assign.ClientIndices, factory, 3)
		var agg Aggregator = FedAvg{}
		if useDRL {
			drlCfg := core.DefaultConfig(6)
			drlCfg.Hidden = 64
			drlCfg.WarmupExperiences = 1
			drlCfg.UpdatesPerRound = 1
			agg = NewFedDRL(core.NewAgent(drlCfg))
		}
		b.StartTimer()
		_ = Run(cfg, clients, test, agg)
	}
}

func BenchmarkFullRoundFedAvg(b *testing.B) { benchmarkFullRound(b, false) }
func BenchmarkFullRoundFedDRL(b *testing.B) { benchmarkFullRound(b, true) }

// BenchmarkRewardAndState measures the per-round server bookkeeping of
// FedDRL (state assembly + reward), which §5.3 argues is trivial.
func BenchmarkRewardAndState(b *testing.B) {
	cfg := core.DefaultConfig(10)
	lb := make([]float64, 10)
	la := make([]float64, 10)
	ns := make([]int, 10)
	for i := range lb {
		lb[i] = 1 + 0.1*float64(i)
		la[i] = 0.5
		ns[i] = 100
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := core.BuildState(cfg, lb, la, ns)
		_ = core.RewardOf(cfg, lb)
		_ = mathx.Sum(s)
	}
}

// --- Engine benchmarks: the bounded-worker round loop -----------------

// engineBenchFixture builds the fixed federation used by the engine
// round-loop benchmarks: enough clients and data that local training
// dominates, the regime where worker lanes pay off.
func engineBenchFixture() (cfg RunConfig, mk func() []*Client, test *Dataset) {
	spec := MNISTSim().Scaled(0.2)
	train, test := Synthesize(spec, 1)
	assign := ClusteredEqual(train, 8, 0.6, 2, 3, NewRNG(2))
	factory := MLPFactory(train.Dim, []int{48}, train.NumClasses)
	cfg = RunConfig{
		Rounds: 2, K: 8,
		Local:   LocalConfig{Epochs: 2, Batch: 10, LR: 0.03},
		Factory: factory, Seed: 3,
		EvalEvery: 1,
	}
	mk = func() []*Client { return BuildClients(train, assign.ClientIndices, factory, 3) }
	return cfg, mk, test
}

// benchmarkEngineRoundLoop measures the full round loop (client
// training, evaluation, aggregation) at a fixed engine width. Output is
// identical at every width — only wall-clock may differ.
func benchmarkEngineRoundLoop(b *testing.B, workers int) {
	cfg, mk, test := engineBenchFixture()
	cfg.Workers = workers
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		clients := mk()
		b.StartTimer()
		_ = Run(cfg, clients, test, FedAvg{})
	}
}

func BenchmarkEngineRoundLoopSequential(b *testing.B) { benchmarkEngineRoundLoop(b, 1) }
func BenchmarkEngineRoundLoopWorkers2(b *testing.B)   { benchmarkEngineRoundLoop(b, 2) }
func BenchmarkEngineRoundLoopWorkers4(b *testing.B)   { benchmarkEngineRoundLoop(b, 4) }
func BenchmarkEngineRoundLoopWorkersMax(b *testing.B) {
	benchmarkEngineRoundLoop(b, runtime.GOMAXPROCS(0))
}

// --- Async round engine benchmark -------------------------------------

// asyncBenchFixture builds the virtual federation the async round-engine
// benchmark runs over: the engine fixture's dataset striped cyclically
// across 1000 client identities, K=8. The pool is rebuilt per
// measurement because ClientPool state (RNG snapshots, losses) persists
// across runs.
func asyncBenchFixture() (cfg RunConfig, mkPool func() *ClientPool) {
	spec := MNISTSim().Scaled(0.2)
	train, _ := Synthesize(spec, 1)
	factory := MLPFactory(train.Dim, []int{48}, train.NumClasses)
	cfg = RunConfig{
		Rounds: 3, K: 8,
		Local:   LocalConfig{Epochs: 1, Batch: 10, LR: 0.03},
		Factory: factory, Seed: 3, Workers: 4,
	}
	mkPool = func() *ClientPool {
		return NewClientPool(train, CyclicPartition{N: train.N, Per: 8, Clients: 1000}, factory, 7)
	}
	return cfg, mkPool
}

// asyncBenchTrace is the straggler trace the benchmark's traced variant
// runs under: half the identities 8× slow, sub-K aggregation threshold,
// staleness decay — the configuration that exercises the event queue,
// redispatch and reweighting machinery.
func asyncBenchTrace(cfg RunConfig) AsyncConfig {
	return AsyncConfig{
		RunConfig: cfg,
		Arrival: TraceArrivals{
			Seed: 7, BaseDelay: 0.5, Jitter: 0.3,
			StragglerFrac: 0.5, StragglerFactor: 8,
		},
		StalenessDecay: 0.5,
		AggregateEvery: cfg.K / 2,
	}
}

// mustAsyncBench unwraps RunAsync's (result, error) pair for the bench
// fixtures, whose drop rates are far below the starvation threshold.
func mustAsyncBench(r *AsyncResult, err error) *AsyncResult {
	if err != nil {
		panic(err)
	}
	return r
}

// BenchmarkEngineRoundLoopAsync is the bench-smoke entry for the async
// engine (the name matches the EngineRoundLoop pattern, so `make
// bench-smoke` picks it up); the JSON record comes from
// TestEngineBenchJSON.
func BenchmarkEngineRoundLoopAsync(b *testing.B) {
	cfg, mkPool := asyncBenchFixture()
	acfg := asyncBenchTrace(cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cp := mkPool()
		b.StartTimer()
		_ = mustAsyncBench(RunAsync(acfg, cp, nil, FedAvg{}))
	}
}

// asyncRoundJSON is the BENCH_engine.json record of the async round
// engine: per-round wall clock of the synchronous loop, its degenerate
// async twin (the substrate overhead of the event queue alone — the two
// are bit-identical in output, asserted below), and the straggler trace
// with staleness-weighted merging.
type asyncRoundJSON struct {
	Clients int `json:"clients"`
	K       int `json:"k"`
	Rounds  int `json:"rounds"`
	Workers int `json:"workers"`
	// Per-round wall clock (best of reps) for each substrate variant.
	SyncNsPerRound       int64 `json:"sync_ns_per_round"`
	DegenerateNsPerRound int64 `json:"async_degenerate_ns_per_round"`
	TraceNsPerRound      int64 `json:"async_trace_ns_per_round"`
	// TraceMeanStaleness is the traced run's mean update age in server
	// rounds (>0 proves stale merges actually happened).
	TraceMeanStaleness float64 `json:"trace_mean_staleness"`
	// DegenerateBitIdentical records the determinism contract: the
	// degenerate async run's final weights equal the synchronous run's
	// bit for bit.
	DegenerateBitIdentical bool `json:"degenerate_bit_identical"`
}

// measureAsyncRound produces the async record (best-of-3 per variant).
func measureAsyncRound() asyncRoundJSON {
	cfg, mkPool := asyncBenchFixture()
	rec := asyncRoundJSON{Clients: 1000, K: cfg.K, Rounds: cfg.Rounds, Workers: cfg.Workers}
	best := func(f func()) int64 {
		var b time.Duration
		for r := 0; r < 3; r++ {
			start := time.Now()
			f()
			if d := time.Since(start); b == 0 || d < b {
				b = d
			}
		}
		return b.Nanoseconds() / int64(cfg.Rounds)
	}
	var syncW, degW []float64
	rec.SyncNsPerRound = best(func() { syncW = RunVirtual(cfg, mkPool(), nil, FedAvg{}).Weights })
	rec.DegenerateNsPerRound = best(func() {
		degW = mustAsyncBench(RunAsync(AsyncConfig{RunConfig: cfg}, mkPool(), nil, FedAvg{})).Weights
	})
	var stale float64
	rec.TraceNsPerRound = best(func() {
		stale = mustAsyncBench(RunAsync(asyncBenchTrace(cfg), mkPool(), nil, FedAvg{})).MeanStaleness()
	})
	rec.TraceMeanStaleness = stale
	rec.DegenerateBitIdentical = len(syncW) == len(degW)
	for i := range syncW {
		if math.Float64bits(syncW[i]) != math.Float64bits(degW[i]) {
			rec.DegenerateBitIdentical = false
			break
		}
	}
	return rec
}

// --- Nested-grid benchmark: stealing under outer saturation -----------

// nestedGridJSON is the BENCH_engine.json record of the nested-grid
// case: an outer grid that saturates the pool while one heavy cell
// repeatedly runs an inner evaluator-shaped parallel-for. The occupancy
// fields are the point: under the old unbuffered-handoff engine the
// heavy cell's inner loops ran caller-inline (exactly 1 lane) whenever
// the outer grid held every lane; the work-stealing scheduler lets
// lanes that drain their own cells steal into the laggard's inner jobs.
type nestedGridJSON struct {
	Workers        int   `json:"workers"`
	OuterCells     int   `json:"outer_cells"`
	HeavyInnerFors int   `json:"heavy_cell_inner_fors"`
	InnerTasks     int   `json:"inner_tasks_per_for"`
	NsPerRun       int64 `json:"ns_per_run"`
	// OuterLanesBusyMax is the peak number of outer cells in flight at
	// once — pool saturation evidence for the outer layer.
	OuterLanesBusyMax int `json:"outer_lanes_busy_max"`
	// InnerLanesBusyMax is the peak number of the heavy cell's inner
	// tasks in flight at once — >1 means a second lane was inside the
	// cell while it ran.
	InnerLanesBusyMax int `json:"heavy_cell_inner_lanes_busy_max"`
	// InnerLanesUsed counts the distinct lane ids that executed inner
	// work of the heavy cell across the whole run — the
	// scheduling-level occupancy that holds even on a single-core host,
	// where concurrency exists but physical parallelism does not.
	InnerLanesUsed int `json:"heavy_cell_inner_lanes_used"`
	// Engine-level counters (Pool.EnableStats): entries published to
	// the deques, successful steals, and the engine's peak in-flight
	// task count (nested tasks count at every level, so it can exceed
	// Workers) — the scheduler's view of the same saturation the
	// bench-side atomics observe.
	EngineEnqueues     int64 `json:"engine_enqueues"`
	EngineSteals       int64 `json:"engine_steals"`
	EngineMaxLanesBusy int64 `json:"engine_max_lanes_busy"`
}

// peak raises *max to cur if cur is larger (atomic).
func peak(max *int64, cur int64) {
	for {
		m := atomic.LoadInt64(max)
		if cur <= m || atomic.CompareAndSwapInt64(max, m, cur) {
			return
		}
	}
}

// runNestedGridCase executes the nested-grid workload once on a fresh
// pool and returns its occupancy record (NsPerRun left to the caller).
// Cell 0 is heavy: it runs heavyRounds inner parallel-fors while every
// other cell runs one, so the outer grid saturates the pool first and
// the freed lanes then find only the heavy cell's nested entries to
// steal.
func runNestedGridCase(workers, outerCells, heavyRounds, innerTasks int) nestedGridJSON {
	pool := engine.New(workers)
	defer pool.Close()
	pool.EnableStats()
	var outerCur, outerMax int64
	var innerCur, innerMax int64
	heavyLanes := make([]int64, workers)
	sink := make([]float64, outerCells)

	innerFor := func(heavy bool, slot int) {
		part := make([]float64, innerTasks)
		pool.ForWorker(innerTasks, func(w, j int) {
			if heavy {
				peak(&innerMax, atomic.AddInt64(&innerCur, 1))
				atomic.AddInt64(&heavyLanes[w], 1)
			}
			// Evaluator-shaped compute: a chunk of pure float work,
			// sized in the hundreds of microseconds so that even on a
			// single-core host the scheduler's preemption ticks give
			// parked lanes a chance to steal (a run shorter than one
			// tick would finish on the submitting lane by default).
			s := 0.0
			for t := 0; t < 150000; t++ {
				s += math.Sqrt(float64(t + j + 1))
			}
			part[j] = s
			if heavy {
				atomic.AddInt64(&innerCur, -1)
			}
		})
		for _, v := range part {
			sink[slot] += v
		}
	}

	pool.For(outerCells, func(i int) {
		peak(&outerMax, atomic.AddInt64(&outerCur, 1))
		rounds := 1
		if i == 0 {
			rounds = heavyRounds
		}
		for r := 0; r < rounds; r++ {
			innerFor(i == 0, i)
		}
		atomic.AddInt64(&outerCur, -1)
	})

	lanesUsed := 0
	for _, c := range heavyLanes {
		if c > 0 {
			lanesUsed++
		}
	}
	st := pool.Stats()
	return nestedGridJSON{
		Workers:            workers,
		OuterCells:         outerCells,
		HeavyInnerFors:     heavyRounds,
		InnerTasks:         innerTasks,
		OuterLanesBusyMax:  int(outerMax),
		InnerLanesBusyMax:  int(innerMax),
		InnerLanesUsed:     lanesUsed,
		EngineEnqueues:     st.Enqueues,
		EngineSteals:       st.Steals,
		EngineMaxLanesBusy: st.MaxLanesBusy,
	}
}

// BenchmarkNestedGridSteal is the bench-smoke entry for the nested
// case; the JSON record comes from TestEngineBenchJSON.
func BenchmarkNestedGridSteal(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runNestedGridCase(4, 8, 32, 16)
	}
}

// --- Client-scaling case: constant memory in client count -------------

// clientScalingJSON is the BENCH_engine.json record of the virtual-client
// memory model: the same K=10 federated run at 100 and 1,000,000 client
// identities, with the peak live heap of each. The ratio is the point —
// the ClientPool keeps per-round state O(K), so a 10,000× jump in client
// count must not move peak memory materially (asserted ≤ 2× by
// TestEngineBenchJSON).
type clientScalingJSON struct {
	ClientsSmall  int     `json:"clients_small"`
	ClientsLarge  int     `json:"clients_large"`
	K             int     `json:"k"`
	Rounds        int     `json:"rounds"`
	Workers       int     `json:"workers"`
	PeakHeapSmall uint64  `json:"peak_heap_small_bytes"`
	PeakHeapLarge uint64  `json:"peak_heap_large_bytes"`
	Ratio         float64 `json:"peak_heap_ratio"`
}

// heapPeakSelector wraps a Selector and samples the live heap at every
// selection point (plus the caller's explicit samples before and after
// the run), recording the maximum — a deterministic, allocation-noise-
// free stand-in for continuous peak-RSS tracking.
type heapPeakSelector struct {
	inner Selector
	peak  *uint64
}

func (s heapPeakSelector) Name() string { return s.inner.Name() }

func (s heapPeakSelector) Select(round, k int, pop Population, r *rng.RNG) []int {
	sampleHeapPeak(s.peak)
	return s.inner.Select(round, k, pop, r)
}

// sampleHeapPeak raises *peak to the current live heap after a GC.
func sampleHeapPeak(peak *uint64) {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	if m.HeapAlloc > *peak {
		*peak = m.HeapAlloc
	}
}

// measureClientScaling runs the canonical virtual-client workload —
// CyclicPartition over the engine fixture's dataset, K=10 — at the given
// client count and returns the peak live heap observed across the run.
func measureClientScaling(clients int) uint64 {
	spec := MNISTSim().Scaled(0.2)
	train, _ := Synthesize(spec, 1)
	factory := MLPFactory(train.Dim, []int{48}, train.NumClasses)
	cp := NewClientPool(train, CyclicPartition{N: train.N, Per: 8, Clients: clients}, factory, 7)
	var peakHeap uint64
	cfg := RunConfig{
		Rounds: 3, K: 10,
		Local:   LocalConfig{Epochs: 1, Batch: 8, LR: 0.03},
		Factory: factory, Seed: 9, Workers: 4,
		Selector: heapPeakSelector{inner: UniformSelector{}, peak: &peakHeap},
	}
	sampleHeapPeak(&peakHeap)
	_ = RunVirtual(cfg, cp, nil, FedAvg{})
	sampleHeapPeak(&peakHeap)
	return peakHeap
}

// benchRecordPath is where a BENCH_*.json record is written: the
// tracked file in the repository root when benchmarks were requested
// (-test.bench is set, as `make bench` and `make bench-smoke` do), and
// a test temp dir otherwise, so a plain `go test ./...` still checks
// the record without rewriting it with the local host's numbers.
func benchRecordPath(t *testing.T, name string) string {
	if f := flag.Lookup("test.bench"); f != nil && f.Value.String() != "" {
		return name
	}
	return filepath.Join(t.TempDir(), name)
}

// TestEngineBenchJSON times the round loop at several engine widths and
// writes BENCH_engine.json (see benchRecordPath), the machine-readable
// record of the engine's scaling on this host. On a single-core host
// the expected speedup is ~1.0 by physics; the JSON records GOMAXPROCS
// so downstream tooling can tell "no cores" from "no scaling".
//
// It also records the nested-grid case with per-layer lane occupancy,
// and asserts the work-stealing guarantee directly: more than one lane
// executed inner work of the heavy cell even though the outer grid had
// saturated the pool (lane occupancy is a scheduling property, so it
// must hold regardless of core count).
func TestEngineBenchJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("timing run")
	}
	cfg, mk, test := engineBenchFixture()
	widths := []int{1, 2, 4}
	if n := runtime.GOMAXPROCS(0); n > 1 && n != 2 && n != 4 {
		widths = append(widths, n)
	}
	type caseJSON struct {
		Workers   int     `json:"workers"`
		NsPerRun  int64   `json:"ns_per_run"`
		SpeedupVs float64 `json:"speedup_vs_sequential"`
	}
	measure := func(workers int) int64 {
		c := cfg
		c.Workers = workers
		best := time.Duration(0)
		const reps = 3
		for r := 0; r < reps; r++ {
			clients := mk()
			start := time.Now()
			_ = Run(c, clients, test, FedAvg{})
			if d := time.Since(start); best == 0 || d < best {
				best = d
			}
		}
		return best.Nanoseconds()
	}
	cases := make([]caseJSON, 0, len(widths))
	var seqNs int64
	for _, w := range widths {
		ns := measure(w)
		if w == 1 {
			seqNs = ns
		}
		sp := 0.0
		if ns > 0 && seqNs > 0 {
			sp = float64(seqNs) / float64(ns)
		}
		cases = append(cases, caseJSON{Workers: w, NsPerRun: ns, SpeedupVs: sp})
	}
	// Nested-grid case: saturate a 4-lane pool with 8 cells, one heavy.
	const nWorkers, nCells, nHeavy, nInner = 4, 8, 32, 16
	var nested nestedGridJSON
	var nestedNs int64
	for r := 0; r < 3; r++ {
		start := time.Now()
		n := runNestedGridCase(nWorkers, nCells, nHeavy, nInner)
		ns := time.Since(start).Nanoseconds()
		if r == 0 || ns < nestedNs {
			nestedNs = ns
			nested = n
		}
	}
	nested.NsPerRun = nestedNs

	// Client-scaling case: peak live heap must be a function of K, not of
	// the client count. Run small first so the large run inherits a warm
	// heap baseline rather than the other way around.
	const scaleSmall, scaleLarge, scaleK, scaleRounds = 100, 1_000_000, 10, 3
	peakSmall := measureClientScaling(scaleSmall)
	peakLarge := measureClientScaling(scaleLarge)
	scaling := clientScalingJSON{
		ClientsSmall:  scaleSmall,
		ClientsLarge:  scaleLarge,
		K:             scaleK,
		Rounds:        scaleRounds,
		Workers:       4,
		PeakHeapSmall: peakSmall,
		PeakHeapLarge: peakLarge,
		Ratio:         float64(peakLarge) / float64(peakSmall),
	}

	// Async round engine: sync vs degenerate-async vs straggler-trace
	// per-round cost, plus the bit-identity contract as a recorded fact.
	asyncRec := measureAsyncRound()

	doc := struct {
		Benchmark     string            `json:"benchmark"`
		GOMAXPROCS    int               `json:"gomaxprocs"`
		NumCPU        int               `json:"num_cpu"`
		Rounds        int               `json:"rounds"`
		Clients       int               `json:"clients"`
		Cases         []caseJSON        `json:"cases"`
		NestedGrid    nestedGridJSON    `json:"nested_grid"`
		ClientScaling clientScalingJSON `json:"client_scaling"`
		AsyncRound    asyncRoundJSON    `json:"async_round"`
	}{
		Benchmark:     "engine_round_loop",
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		NumCPU:        runtime.NumCPU(),
		Rounds:        cfg.Rounds,
		Clients:       cfg.K,
		Cases:         cases,
		NestedGrid:    nested,
		ClientScaling: scaling,
		AsyncRound:    asyncRec,
	}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	path := benchRecordPath(t, "BENCH_engine.json")
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("%s: %s", path, buf)
	// Sanity: every width must have produced a measurement.
	for _, c := range cases {
		if c.NsPerRun <= 0 {
			t.Fatalf("workers=%d: no measurement", c.Workers)
		}
	}
	// The work-stealing acceptance gate: with the outer grid saturating
	// the pool, the heavy cell's inner parallel-fors must have been
	// executed by more than one lane in at least one of the reps (the
	// recorded best). The old engine pinned this to exactly 1.
	if nested.InnerLanesUsed <= 1 {
		t.Fatalf("nested grid: heavy cell's inner work ran on %d lane(s); stealing never joined the cell (%+v)",
			nested.InnerLanesUsed, nested)
	}
	// Engine instrumentation gate: the stats-enabled pool must have
	// observed the same saturation — helper entries were published and
	// more than one task was in flight.
	if nested.EngineEnqueues <= 0 || nested.EngineMaxLanesBusy <= 1 {
		t.Fatalf("nested grid: engine stats missed the saturation (%+v)", nested)
	}
	// The constant-memory acceptance gate: a 10,000× jump in client count
	// at fixed K must leave peak live heap within 2× of the small run.
	// Before the lazy-view ClientPool, materializing a million shards
	// failed this by orders of magnitude (or OOMed outright).
	if scaling.PeakHeapSmall == 0 || scaling.Ratio > 2.0 {
		t.Fatalf("client scaling: peak heap grew %.2fx from %d to %d clients (%+v)",
			scaling.Ratio, scaleSmall, scaleLarge, scaling)
	}
	// Async engine gates: all three variants measured, the straggler
	// trace actually produced stale merges, and the degenerate async run
	// reproduced the synchronous weights bit for bit.
	if asyncRec.SyncNsPerRound <= 0 || asyncRec.DegenerateNsPerRound <= 0 || asyncRec.TraceNsPerRound <= 0 {
		t.Fatalf("async round: missing measurement (%+v)", asyncRec)
	}
	if asyncRec.TraceMeanStaleness <= 0 {
		t.Fatalf("async round: straggler trace produced no stale merges (%+v)", asyncRec)
	}
	if !asyncRec.DegenerateBitIdentical {
		t.Fatalf("async round: degenerate trace diverged from the synchronous loop (%+v)", asyncRec)
	}
}

// --- Compute-kernel benchmarks: the blocked GEMM/conv hot path --------

// computeGEMMShapes are the paper-relevant products: a client minibatch
// through the MNIST CNN's first conv (batch 10 × 8×8 positions), an
// eval chunk through the VGG stand-in's widest conv, a mid square, and
// the large square that is the headline blocked-vs-naive comparison.
// The last entry must remain the largest by flops: the acceptance gate
// keys on it.
var computeGEMMShapes = []struct{ M, K, N int }{
	{640, 9, 8},     // SimpleCNN conv1, one training minibatch
	{2560, 288, 32}, // VGGMini conv4, one training minibatch
	{256, 256, 256},
	{512, 512, 512}, // largest: the gated blocked-vs-naive shape
}

// gemmFixture builds deterministic operands for a shape.
func gemmFixture(m, k, n int) (a, b, dst *tensor.Tensor) {
	a, b, dst = tensor.New(m, k), tensor.New(k, n), tensor.New(m, n)
	for i := range a.Data {
		a.Data[i] = 0.25 * float64(i%23)
	}
	for i := range b.Data {
		b.Data[i] = 0.5 * float64(i%19)
	}
	return a, b, dst
}

// BenchmarkComputeGEMMBlocked / BenchmarkComputeGEMMNaive time the
// dispatching kernel against the reference triple loop at the headline
// shape (bench-smoke entries; BENCH_compute.json is written by
// TestComputeBenchJSON).
func BenchmarkComputeGEMMBlocked(b *testing.B) {
	sh := computeGEMMShapes[len(computeGEMMShapes)-1]
	x, y, dst := gemmFixture(sh.M, sh.K, sh.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMulInto(dst, x, y)
	}
}

func BenchmarkComputeGEMMNaive(b *testing.B) {
	sh := computeGEMMShapes[len(computeGEMMShapes)-1]
	x, y, dst := gemmFixture(sh.M, sh.K, sh.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMulNaiveInto(dst, x, y)
	}
}

// gemmFixture32 builds deterministic f32 operands for a shape (the same
// value pattern as gemmFixture, quantized).
func gemmFixture32(m, k, n int) (a, b, dst *tensor.Tensor32) {
	a, b, dst = tensor.New32(m, k), tensor.New32(k, n), tensor.New32(m, n)
	for i := range a.Data {
		a.Data[i] = 0.25 * float32(i%23)
	}
	for i := range b.Data {
		b.Data[i] = 0.5 * float32(i%19)
	}
	return a, b, dst
}

// BenchmarkComputeGEMMF32Blocked / BenchmarkComputeGEMMF32Naive time
// the half-width kernel pair at the same headline shape (bench-smoke
// entries via the ComputeGEMM pattern).
func BenchmarkComputeGEMMF32Blocked(b *testing.B) {
	sh := computeGEMMShapes[len(computeGEMMShapes)-1]
	x, y, dst := gemmFixture32(sh.M, sh.K, sh.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMul32Into(dst, x, y)
	}
}

func BenchmarkComputeGEMMF32Naive(b *testing.B) {
	sh := computeGEMMShapes[len(computeGEMMShapes)-1]
	x, y, dst := gemmFixture32(sh.M, sh.K, sh.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMulNaive32Into(dst, x, y)
	}
}

// elemwiseBenchFixture sizes the vectors like one flattened model
// update (the Eq. 4 aggregation and SGD step granularity).
func elemwiseBenchFixture() (x, y []float64) {
	x = make([]float64, 1<<16)
	y = make([]float64, 1<<16)
	for i := range x {
		x[i] = 0.25 * float64(i%23)
	}
	return x, y
}

// BenchmarkComputeElemwiseAxpy times the aggregation/SGD workhorse on
// the dispatched backend (bench-smoke entry).
func BenchmarkComputeElemwiseAxpy(b *testing.B) {
	x, y := elemwiseBenchFixture()
	b.SetBytes(24 << 16) // read x, read y, write y
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.Axpy(1.0/1024, x, y)
	}
}

// BenchmarkComputeElemwiseF32Axpy times the f32 aggregation workhorse
// (the WeightedMerge.Merge32 inner kernel) at the same element count.
func BenchmarkComputeElemwiseF32Axpy(b *testing.B) {
	x := make([]float32, 1<<16)
	y := make([]float32, 1<<16)
	for i := range x {
		x[i] = 0.25 * float32(i%23)
	}
	b.SetBytes(12 << 16) // read x, read y, write y
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.Axpy32(1.0/1024, x, y)
	}
}

// BenchmarkComputeElemwiseReLU times the activation kernel pair.
func BenchmarkComputeElemwiseReLU(b *testing.B) {
	x, y := elemwiseBenchFixture()
	b.SetBytes(2 * 16 << 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.ReLUForward(x, y)
		tensor.ReLUBackward(x, y, y)
	}
}

// convBenchFixture is a VGG-scale conv layer with a warm arena.
func convBenchFixture() (*nn.Conv2D, *nn.Scratch, *tensor.Tensor, *tensor.Tensor) {
	g := tensor.ConvGeom{InC: 16, InH: 16, InW: 16, K: 3, Stride: 1, Pad: 1}
	conv := nn.NewConv2D(rng.New(5), g, 32)
	sc := nn.NewScratch()
	x := tensor.New(32, conv.InLen())
	for i := range x.Data {
		x.Data[i] = 0.1 * float64(i%31)
	}
	out := conv.ForwardScratch(sc, 0, x, true)
	grad := out.Clone()
	return conv, sc, x, grad
}

func BenchmarkComputeConvForward(b *testing.B) {
	conv, sc, x, _ := convBenchFixture()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conv.ForwardScratch(sc, 0, x, true)
	}
}

func BenchmarkComputeConvBackward(b *testing.B) {
	conv, sc, x, grad := convBenchFixture()
	conv.ForwardScratch(sc, 0, x, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conv.BackwardScratch(sc, 0, grad, nn.ParamGrads|nn.InputGrad)
	}
}

// computeBenchDoc is the BENCH_compute.json schema (asserted by
// TestComputeBenchJSON, like TestEngineBenchJSON for the engine).
// gemmEntry is one shape's blocked-vs-naive record in
// BENCH_compute.json.
type gemmEntry struct {
	Shape     string  `json:"shape"`
	Backend   string  `json:"kernel_backend"`
	NaiveNs   int64   `json:"naive_ns"`
	BlockedNs int64   `json:"blocked_ns"`
	Speedup   float64 `json:"speedup"`
	GFLOPS    float64 `json:"blocked_gflops"`
}

// backendEntry is one row of the backend matrix: the same headline GEMM
// and a bandwidth-bound elementwise kernel, re-measured with the named
// backend forced, so the marginal value of each SIMD tier is recorded
// next to the numbers it produced.
type backendEntry struct {
	Backend    string  `json:"backend"`
	GemmGFLOPS float64 `json:"gemm_gflops"`
	AxpyGBs    float64 `json:"axpy_gb_s"`
}

// precisionEntry is one row of the f32-vs-f64 matrix: the merge's axpy
// kernel at each federated-state width, plus the wire size of one
// reference model update. (No GEMM: clients train in float64 at either
// width, and the f32 GEMM no run reaches has no SIMD tier.) AxpyGBs is
// raw memory bandwidth (12 B/element at f32, 24 at f64 — roughly equal
// on a bandwidth-bound kernel); AxpyEffGBs is model-state throughput on
// a common scale — weights/s × 8 bytes — which is where the half-width
// win shows up: the same bandwidth carries twice the weights.
type precisionEntry struct {
	Precision  string  `json:"precision"`
	AxpyGBs    float64 `json:"axpy_gb_s"`
	AxpyEffGBs float64 `json:"axpy_effective_gb_s"`
	UpdateWire int     `json:"update_wire_bytes"`
}

type computeBenchDoc struct {
	Benchmark      string           `json:"benchmark"`
	Backend        string           `json:"kernel_backend"`
	GOMAXPROCS     int              `json:"gomaxprocs"`
	NumCPU         int              `json:"num_cpu"`
	GEMM           []gemmEntry      `json:"gemm"`
	Backends       []backendEntry   `json:"backend_matrix"`
	Precisions     []precisionEntry `json:"precision_matrix"`
	ConvForwardNs  int64            `json:"conv_forward_ns"`
	ConvBackwardNs int64            `json:"conv_backward_ns"`
	TrainStep      struct {
		DenseAllocs float64 `json:"dense_allocs_per_step"`
		ConvAllocs  float64 `json:"conv_allocs_per_step"`
	} `json:"train_step"`
}

// warmTrainStepAllocs measures heap allocations of one warm arena-backed
// train step on the given network.
func warmTrainStepAllocs(net *nn.Network, in int) float64 {
	sc := nn.NewScratch()
	ce := nn.NewCrossEntropy()
	opt := nn.NewSGD(0.05)
	x := tensor.New(8, in)
	for i := range x.Data {
		x.Data[i] = 0.1 * float64(i%13)
	}
	y := make([]int, 8)
	for i := range y {
		y[i] = i % 2
	}
	step := func() {
		ce.Forward(net.ForwardScratch(sc, x, true), y)
		net.ZeroGrads()
		net.BackwardScratch(sc, ce.Backward())
		opt.Step(net)
	}
	for i := 0; i < 3; i++ {
		step()
	}
	return testing.AllocsPerRun(10, step)
}

// benchPairs is the number of interleaved pairs behind each ratio gate.
const benchPairs = 9

// pairedRatio times base and fast back to back n times, alternating
// which runs first, and returns the median of base's time over fast's.
// A burst of load from a neighbouring process lands on both halves of
// a pair, so the median per-pair ratio holds where a ratio of two rows
// timed one after the other does not.
func pairedRatio(n int, base, fast func()) float64 {
	timed := func(f func()) float64 {
		start := time.Now()
		f()
		return float64(time.Since(start))
	}
	ratios := make([]float64, n)
	for i := range ratios {
		var tb, tf float64
		if i%2 == 0 {
			tb, tf = timed(base), timed(fast)
		} else {
			tf, tb = timed(fast), timed(base)
		}
		ratios[i] = tb / tf
	}
	slices.Sort(ratios)
	return ratios[n/2]
}

// TestComputeBenchJSON measures the compute hot path — blocked-vs-naive
// GEMM at every paper-relevant shape, conv forward/backward, and warm
// train-step allocations — and writes BENCH_compute.json (see
// benchRecordPath). It enforces the kernel acceptance gates: ≥1.5×
// blocked speedup at the largest shape on the AVX backend, and zero
// allocations on warm train steps.
func TestComputeBenchJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("timing run")
	}
	// Measure the sequential kernels: clear any pool hook a prior test
	// installed.
	SetKernelPool(nil)

	doc := computeBenchDoc{
		Benchmark:  "compute_kernels",
		Backend:    KernelBackend(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
	best := func(f func()) int64 {
		var b time.Duration
		for r := 0; r < 3; r++ {
			start := time.Now()
			f()
			if d := time.Since(start); b == 0 || d < b {
				b = d
			}
		}
		return b.Nanoseconds()
	}
	for _, sh := range computeGEMMShapes {
		a, bb, dst := gemmFixture(sh.M, sh.K, sh.N)
		naiveNs := best(func() { tensor.MatMulNaiveInto(dst, a, bb) })
		blockedNs := best(func() { tensor.MatMulInto(dst, a, bb) })
		flops := 2 * float64(sh.M) * float64(sh.K) * float64(sh.N)
		entry := gemmEntry{
			Shape:     fmt.Sprintf("%dx%dx%d", sh.M, sh.K, sh.N),
			Backend:   KernelBackend(),
			NaiveNs:   naiveNs,
			BlockedNs: blockedNs,
		}
		if blockedNs > 0 {
			entry.Speedup = float64(naiveNs) / float64(blockedNs)
			entry.GFLOPS = flops / float64(blockedNs)
		}
		doc.GEMM = append(doc.GEMM, entry)
	}

	// Backend matrix: re-measure the headline GEMM and the axpy kernel
	// with each backend in the fallback chain forced, so the marginal
	// value of every SIMD tier is on record. The detected backend is
	// restored before anything else runs.
	{
		active := KernelBackend()
		sh := computeGEMMShapes[len(computeGEMMShapes)-1]
		a, bb, dst := gemmFixture(sh.M, sh.K, sh.N)
		flops := 2 * float64(sh.M) * float64(sh.K) * float64(sh.N)
		const axpyN, axpyReps = 1 << 16, 256
		ax := make([]float64, axpyN)
		ay := make([]float64, axpyN)
		for i := range ax {
			ax[i] = 0.25 * float64(i%23)
		}
		for _, bk := range tensor.Backends() {
			if err := tensor.SetBackend(bk); err != nil {
				t.Fatalf("SetBackend(%q): %v", bk, err)
			}
			gemmNs := best(func() { tensor.MatMulInto(dst, a, bb) })
			axpyNs := best(func() {
				for r := 0; r < axpyReps; r++ {
					tensor.Axpy(1.0/1024, ax, ay)
				}
			})
			entry := backendEntry{Backend: bk}
			if gemmNs > 0 {
				entry.GemmGFLOPS = flops / float64(gemmNs)
			}
			if axpyNs > 0 {
				// Axpy traffic: read x, read y, write y = 24 B/element;
				// bytes/ns is GB/s.
				entry.AxpyGBs = 24 * axpyN * axpyReps / float64(axpyNs)
			}
			doc.Backends = append(doc.Backends, entry)
		}
		if err := tensor.SetBackend(active); err != nil {
			t.Fatalf("restoring backend %q: %v", active, err)
		}
	}

	// Precision matrix: the merge's axpy kernel at both federated-state
	// widths on the detected backend, plus the wire size of one
	// reference update (the §5.3 payload a -precision f32 run halves).
	{
		const axpyN, axpyReps = 1 << 16, 256
		const refWeights = 100_000 // reference model size for wire bytes
		{
			ax := make([]float64, axpyN)
			ay := make([]float64, axpyN)
			for i := range ax {
				ax[i] = 0.25 * float64(i%23)
			}
			axpyNs := best(func() {
				for r := 0; r < axpyReps; r++ {
					tensor.Axpy(1.0/1024, ax, ay)
				}
			})
			e := precisionEntry{
				Precision:  "f64",
				UpdateWire: CommPerRoundP(FedAvg{}, 1, refWeights, F64).UplinkBytes,
			}
			if axpyNs > 0 {
				e.AxpyGBs = 24 * axpyN * axpyReps / float64(axpyNs)
				// weights/s × 8 B: at full width this equals 8/24 of the
				// raw bandwidth.
				e.AxpyEffGBs = 8 * axpyN * axpyReps / float64(axpyNs)
			}
			doc.Precisions = append(doc.Precisions, e)
		}
		{
			ax := make([]float32, axpyN)
			ay := make([]float32, axpyN)
			for i := range ax {
				ax[i] = 0.25 * float32(i%23)
			}
			axpyNs := best(func() {
				for r := 0; r < axpyReps; r++ {
					tensor.Axpy32(1.0/1024, ax, ay)
				}
			})
			e := precisionEntry{
				Precision:  "f32",
				UpdateWire: CommPerRoundP(FedAvg{}, 1, refWeights, F32).UplinkBytes,
			}
			if axpyNs > 0 {
				e.AxpyGBs = 12 * axpyN * axpyReps / float64(axpyNs)
				// Same common scale: 12 B/element moved, 8 B of
				// model-state per element counted.
				e.AxpyEffGBs = 8 * axpyN * axpyReps / float64(axpyNs)
			}
			doc.Precisions = append(doc.Precisions, e)
		}
	}

	conv, sc, x, grad := convBenchFixture()
	doc.ConvForwardNs = best(func() { conv.ForwardScratch(sc, 0, x, true) })
	conv.ForwardScratch(sc, 0, x, true)
	doc.ConvBackwardNs = best(func() { conv.BackwardScratch(sc, 0, grad, nn.ParamGrads|nn.InputGrad) })

	doc.TrainStep.DenseAllocs = warmTrainStepAllocs(nn.NewMLP(rng.New(1), 24, []int{32, 16}, 4), 24)
	doc.TrainStep.ConvAllocs = warmTrainStepAllocs(nn.NewSimpleCNN(rng.New(2), 1, 8, 8, 4), 64)

	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	path := benchRecordPath(t, "BENCH_compute.json")
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("%s: %s", path, buf)

	// Schema sanity: every shape measured, conv timed, backend named.
	validBackend := map[string]bool{"avx512": true, "avx": true, "neon": true, "generic": true}
	if !validBackend[doc.Backend] {
		t.Fatalf("unknown kernel backend %q", doc.Backend)
	}
	if len(doc.GEMM) != len(computeGEMMShapes) {
		t.Fatalf("measured %d GEMM shapes, want %d", len(doc.GEMM), len(computeGEMMShapes))
	}
	for _, g := range doc.GEMM {
		if g.NaiveNs <= 0 || g.BlockedNs <= 0 {
			t.Fatalf("shape %s: no measurement (%+v)", g.Shape, g)
		}
		if g.Backend != doc.Backend {
			t.Fatalf("shape %s recorded backend %q, doc says %q", g.Shape, g.Backend, doc.Backend)
		}
	}
	// Backend-matrix sanity: every tier in the chain measured.
	if want := len(tensor.Backends()); len(doc.Backends) != want {
		t.Fatalf("backend matrix has %d rows, want %d", len(doc.Backends), want)
	}
	for _, e := range doc.Backends {
		if !validBackend[e.Backend] {
			t.Fatalf("backend matrix row for unknown backend %q", e.Backend)
		}
		if e.GemmGFLOPS <= 0 || e.AxpyGBs <= 0 {
			t.Fatalf("backend %s: no measurement (%+v)", e.Backend, e)
		}
	}
	// The tier-value gate: where AVX-512 is available its headline GEMM
	// must beat AVX by >= 1.3x (measured ~1.45x; the margin absorbs CI
	// noise). Tiers are bit-identical, so this is purely a perf gate. It
	// reads interleaved pairs, not the recorded rows: those are timed
	// one after the other, so load from a package testing beside this
	// one, as `go test ./...` runs them, can slow one row and not the
	// other.
	if tiers := tensor.Backends(); slices.Contains(tiers, "avx512") && slices.Contains(tiers, "avx") {
		sh := computeGEMMShapes[len(computeGEMMShapes)-1]
		a, bb, dst := gemmFixture(sh.M, sh.K, sh.N)
		gemmOn := func(bk string) func() {
			return func() {
				if err := tensor.SetBackend(bk); err != nil {
					t.Fatalf("SetBackend(%q): %v", bk, err)
				}
				tensor.MatMulInto(dst, a, bb)
			}
		}
		ratio := pairedRatio(benchPairs, gemmOn("avx"), gemmOn("avx512"))
		if err := tensor.SetBackend(doc.Backend); err != nil {
			t.Fatalf("restoring backend %q: %v", doc.Backend, err)
		}
		t.Logf("avx512 GEMM is %.2fx avx (median of %d interleaved pairs)", ratio, benchPairs)
		if ratio < 1.3 {
			t.Fatalf("avx512 GEMM is %.2fx avx (median of %d interleaved pairs), want >= 1.3", ratio, benchPairs)
		}
	}
	// Precision-matrix sanity and the f32 advantage gates: both widths
	// measured; the f32 axpy must deliver ≥1.5× the f64 axpy's effective
	// throughput (the half-width kernel touches half the bytes per
	// weight, so ~2× is the expectation and 1.5 absorbs CI noise),
	// measured as interleaved pairs like the tier gate; and the f32
	// update wire size must be at most 0.55× the f64 payload (4+ε vs
	// 8+ε bytes per weight).
	if len(doc.Precisions) != 2 {
		t.Fatalf("precision matrix has %d rows, want 2", len(doc.Precisions))
	}
	p64, p32 := doc.Precisions[0], doc.Precisions[1]
	if p64.Precision != "f64" || p32.Precision != "f32" {
		t.Fatalf("precision matrix rows mislabeled: %q, %q", p64.Precision, p32.Precision)
	}
	for _, e := range doc.Precisions {
		if e.AxpyGBs <= 0 || e.AxpyEffGBs <= 0 || e.UpdateWire <= 0 {
			t.Fatalf("precision %s: no measurement (%+v)", e.Precision, e)
		}
	}
	{
		// Both widths move the same weights, so the effective-throughput
		// ratio is the f64 time over the f32 time.
		const axpyN, axpyReps = 1 << 16, 256
		x64, y64 := make([]float64, axpyN), make([]float64, axpyN)
		x32, y32 := make([]float32, axpyN), make([]float32, axpyN)
		for i := range x64 {
			x64[i], x32[i] = 0.25*float64(i%23), 0.25*float32(i%23)
		}
		ratio := pairedRatio(benchPairs,
			func() {
				for r := 0; r < axpyReps; r++ {
					tensor.Axpy(1.0/1024, x64, y64)
				}
			},
			func() {
				for r := 0; r < axpyReps; r++ {
					tensor.Axpy32(1.0/1024, x32, y32)
				}
			})
		t.Logf("f32 effective axpy is %.2fx f64 (median of %d interleaved pairs)", ratio, benchPairs)
		if ratio < 1.5 {
			t.Fatalf("f32 effective axpy is %.2fx f64 (median of %d interleaved pairs), want >= 1.5", ratio, benchPairs)
		}
	}
	if ratio := float64(p32.UpdateWire) / float64(p64.UpdateWire); ratio > 0.55 {
		t.Fatalf("f32 update wire %.3f of f64, want <= 0.55", ratio)
	}
	if doc.ConvForwardNs <= 0 || doc.ConvBackwardNs <= 0 {
		t.Fatal("conv pass not measured")
	}
	// Allocation gate: warm train steps never touch the heap.
	if doc.TrainStep.DenseAllocs != 0 || doc.TrainStep.ConvAllocs != 0 {
		t.Fatalf("warm train step allocates (dense %.1f, conv %.1f), want 0",
			doc.TrainStep.DenseAllocs, doc.TrainStep.ConvAllocs)
	}
	// Speedup gate at the largest shape. The AVX backend lands ~4-6×
	// (AVX-512 higher still); 1.5 leaves room for a loaded CI host. The
	// generic backend is port-limited near 1.1-1.3× on amd64, so it is
	// reported but not gated.
	headline := doc.GEMM[len(doc.GEMM)-1]
	if (doc.Backend == "avx" || doc.Backend == "avx512") && headline.Speedup < 1.5 {
		t.Fatalf("blocked-vs-naive speedup %.2f at %s, want >= 1.5", headline.Speedup, headline.Shape)
	}
	t.Logf("headline %s: %.2fx blocked-vs-naive, %.1f GFLOP/s (%s backend)",
		headline.Shape, headline.Speedup, headline.GFLOPS, doc.Backend)
}

// TestBenchHarnessSmoke keeps the benchmark harness itself under test:
// every registered experiment must run at a micro scale without
// panicking.
func TestBenchHarnessSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	s := experiments.CI()
	s.DataScale = 0.06
	s.Rounds = 3
	s.SmallN = 6
	s.LargeN = 8
	s.K = 4
	s.Epochs = 1
	s.KSweep = []int{2, 4}
	s.Deltas = []float64{0.3, 0.6}
	start := time.Now()
	for _, id := range experiments.Names() {
		if _, err := experiments.RunCached(id, s, 1, nil); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}
	t.Logf("all %d experiments ran in %v", len(experiments.Names()), time.Since(start))
}
